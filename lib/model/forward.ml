open Utc_net
module Tb = Utc_sim.Timebase
module Fqueue = Utc_sim.Fqueue

type config = {
  loss_mode : [ `Likelihood | `Fork ];
  fork_gates : bool;
  epoch : float;
  max_branches : int;
}

let default_config = { loss_mode = `Likelihood; fork_gates = true; epoch = 1.0; max_branches = 1024 }

type delivery = {
  time : Tb.t;
  packet : Packet.t;
  survive_p : float;
}

type outcome = {
  state : Mstate.t;
  logw : float;
  deliveries : delivery list;
}

type prepared = {
  config : config;
  compiled : Compiled.t;
  queue_free : bool array;
      (* queue_free.(id): no station is reachable from node id (inclusive),
         so a packet dropped here cannot affect any other packet. *)
  mutable plan : prepared option;
      (* Memoized [fork_gates = false] variant for certainty-equivalent
         planning; see [plan_variant]. *)
}

let config_of p = p.config
let compiled_of p = p.compiled

let prepare config compiled =
  let count = Compiled.node_count compiled in
  let memo = Array.make count None in
  let rec link_queue_free = function
    | Compiled.Deliver -> true
    | Compiled.To id -> node_queue_free id
  and node_queue_free id =
    match memo.(id) with
    | Some v -> v
    | None ->
      (* The compiled graph is a DAG (lowered from a tree), so no cycle
         guard is needed. *)
      let v =
        match Compiled.node compiled id with
        | Station _ -> false
        | Delay { next; _ } | Loss { next; _ } | Jitter { next; _ } | Gate { next; _ } ->
          link_queue_free next
        | Either { first; second; _ } -> link_queue_free first && link_queue_free second
        | Multipath { first; second; _ } -> link_queue_free first && link_queue_free second
        | Divert { routes; otherwise } ->
          List.for_all (fun (_, l) -> link_queue_free l) routes && link_queue_free otherwise
      in
      memo.(id) <- Some v;
      v
  in
  let queue_free = Array.init count node_queue_free in
  { config; compiled; queue_free; plan = None }

(* The planner prices rollouts with gate forking off (certainty-
   equivalent planning) but otherwise the filter's exact model; deriving
   that variant is an O(nodes) [prepare] that used to run once per
   hypothesis per decision. Memoize it on the filter's [prepared] — the
   analysis is a pure function of [(config, compiled)], so the memo only
   saves work, never changes a result. Callers fill the memo from the
   serial section of a decision (never inside a pool job), so the
   unsynchronized mutable field is written by one domain at a time. *)
let plan_variant p =
  match p.config.fork_gates with
  | false -> p
  | true -> (
    match p.plan with
    | Some q -> q
    | None ->
      let q =
        {
          config = { p.config with fork_gates = false };
          compiled = p.compiled;
          queue_free = p.queue_free;
          plan = None;
        }
      in
      p.plan <- Some q;
      q)

type branch = {
  state : Mstate.t;
  logw : float;
  deliveries_rev : delivery list;
}

let log_guarded p = if p <= 0.0 then neg_infinity else log p

(* Process a packet arriving at [link] at the branch's current time,
   chaining synchronously through stateless elements exactly as the
   ground-truth runtime does. Returns the branches this arrival forks
   into. *)
let rec arrive p branch link (mpkt : Mstate.mpkt) =
  match (link : Compiled.link) with
  | Deliver ->
    let d = { time = branch.state.Mstate.now; packet = mpkt.pkt; survive_p = mpkt.survive_p } in
    [ { branch with deliveries_rev = d :: branch.deliveries_rev } ]
  | To id -> (
    match Compiled.node p.compiled id with
    | Station { capacity_bits; rate_bps; next = _ } -> (
      let s = Mstate.station branch.state id in
      match s.in_service with
      | None when Fqueue.is_empty s.queue ->
        let completion =
          Tb.add branch.state.Mstate.now (float_of_int mpkt.pkt.Packet.bits /. rate_bps)
        in
        let s = { s with in_service = Some (mpkt, completion) } in
        let state = Mstate.set_node branch.state id (Mstate.MStation s) in
        let state =
          Mstate.insert state ~at:completion ~prio:Evprio.service_complete (Mstate.Complete id)
        in
        [ { branch with state } ]
      | Some _ | None ->
        let fits =
          match capacity_bits with
          | None -> true
          | Some cap -> s.queued_bits + mpkt.pkt.Packet.bits <= cap
        in
        if fits then begin
          let s =
            {
              s with
              queue = Fqueue.push mpkt s.queue;
              queued_bits = s.queued_bits + mpkt.pkt.Packet.bits;
            }
          in
          [ { branch with state = Mstate.set_node branch.state id (Mstate.MStation s) } ]
        end
        else [ branch ] (* tail drop *))
    | Delay { seconds; next } ->
      let state =
        Mstate.insert branch.state
          ~at:(Tb.add branch.state.Mstate.now seconds)
          ~prio:(Evprio.arrival mpkt.pkt.Packet.flow)
          (Mstate.Arrive (next, mpkt))
      in
      [ { branch with state } ]
    | Loss { rate; next } ->
      if rate <= 0.0 then arrive p branch next mpkt
      else if p.config.loss_mode = `Likelihood && p.queue_free.(id) then
        arrive p branch next { mpkt with survive_p = mpkt.survive_p *. (1.0 -. rate) }
      else begin
        (* Fork: lost here, or passed on. *)
        let lost = { branch with logw = branch.logw +. log_guarded rate } in
        if rate >= 1.0 then [ lost ]
        else begin
          let passed = { branch with logw = branch.logw +. log_guarded (1.0 -. rate) } in
          lost :: arrive p passed next mpkt
        end
      end
    | Jitter { seconds; probability; next } ->
      if probability <= 0.0 || seconds = 0.0 then arrive p branch next mpkt
      else begin
        let delayed_state =
          Mstate.insert branch.state
            ~at:(Tb.add branch.state.Mstate.now seconds)
            ~prio:(Evprio.arrival mpkt.pkt.Packet.flow)
            (Mstate.Arrive (next, mpkt))
        in
        let delayed =
          { branch with state = delayed_state; logw = branch.logw +. log_guarded probability }
        in
        if probability >= 1.0 then [ delayed ]
        else begin
          let straight = { branch with logw = branch.logw +. log_guarded (1.0 -. probability) } in
          delayed :: arrive p straight next mpkt
        end
      end
    | Gate { next; _ } ->
      if Mstate.gate_connected branch.state id then arrive p branch next mpkt
      else [ branch ] (* dropped at closed gate *)
    | Either { first; second; _ } -> (
      match branch.state.Mstate.nodes.(id) with
      | Mstate.MEither e -> arrive p branch (if e.on_first then first else second) mpkt
      | Mstate.MStation _ | Mstate.MGate _ | Mstate.MMultipath _ | Mstate.MStateless ->
        assert false)
    | Divert { routes; otherwise } ->
      let rec route = function
        | [] -> arrive p branch otherwise mpkt
        | (flow, target) :: rest ->
          if Flow.equal flow mpkt.pkt.Packet.flow then arrive p branch target mpkt else route rest
      in
      route routes
    | Multipath { policy; first; second } -> (
      match policy, branch.state.Mstate.nodes.(id) with
      | `Round_robin, Mstate.MMultipath m ->
        let target = if m.next_first then first else second in
        let state =
          Mstate.set_node branch.state id (Mstate.MMultipath { next_first = not m.next_first })
        in
        arrive p { branch with state } target mpkt
      | `Random prob, Mstate.MMultipath _ ->
        (* Fork: the packet takes the first path with probability prob. *)
        if prob >= 1.0 then arrive p branch first mpkt
        else if prob <= 0.0 then arrive p branch second mpkt
        else begin
          let to_first = { branch with logw = branch.logw +. log_guarded prob } in
          let to_second = { branch with logw = branch.logw +. log_guarded (1.0 -. prob) } in
          arrive p to_first first mpkt @ arrive p to_second second mpkt
        end
      | _, (Mstate.MStation _ | Mstate.MGate _ | Mstate.MEither _ | Mstate.MStateless) ->
        assert false))

let handle_complete p branch id =
  let s = Mstate.station branch.state id in
  let served =
    match s.in_service with
    | Some (mpkt, _) -> mpkt
    | None -> assert false
  in
  let rate_bps, next =
    match Compiled.node p.compiled id with
    | Station { rate_bps; next; _ } -> (rate_bps, next)
    | Delay _ | Loss _ | Jitter _ | Gate _ | Either _ | Divert _ | Multipath _ -> assert false
  in
  (* Start the next service before forwarding the served packet, mirroring
     the ground-truth runtime's reentrancy-safe order. *)
  let state =
    match Fqueue.pop s.queue with
    | None ->
      Mstate.set_node branch.state id (Mstate.MStation { s with in_service = None })
    | Some (head, queue) ->
      let completion =
        Tb.add branch.state.Mstate.now (float_of_int head.Mstate.pkt.Packet.bits /. rate_bps)
      in
      let s =
        {
          Mstate.queue;
          queued_bits = s.queued_bits - head.Mstate.pkt.Packet.bits;
          in_service = Some (head, completion);
        }
      in
      let state = Mstate.set_node branch.state id (Mstate.MStation s) in
      Mstate.insert state ~at:completion ~prio:Evprio.service_complete (Mstate.Complete id)
  in
  arrive p { branch with state } next served

let handle_pinger p branch i k =
  let pinger = List.nth p.compiled.Compiled.pingers i in
  let now = branch.state.Mstate.now in
  let pkt = Packet.make ~bits:pinger.size_bits ~flow:pinger.flow ~seq:k ~sent_at:now () in
  let next_at = float_of_int (k + 1) /. pinger.rate_pps in
  let state =
    Mstate.insert branch.state ~at:next_at ~prio:(Evprio.arrival pinger.flow)
      (Mstate.Pinger_emit (i, k + 1))
  in
  arrive p { branch with state } pinger.entry { Mstate.pkt; survive_p = 1.0 }

let handle_toggle p branch id k =
  let interval =
    match Compiled.node p.compiled id with
    | Gate { kind = Periodic { interval; _ }; _ } -> interval
    | Gate { kind = Memoryless _; _ } | Station _ | Delay _ | Loss _ | Jitter _ | Either _
    | Divert _ | Multipath _ ->
      assert false
  in
  let connected = Mstate.gate_connected branch.state id in
  let state = Mstate.set_node branch.state id (Mstate.MGate { connected = not connected }) in
  let state =
    Mstate.insert state
      ~at:(float_of_int (k + 1) *. interval)
      ~prio:Evprio.gate_toggle
      (Mstate.Gate_toggle (id, k + 1))
  in
  [ { branch with state } ]

let flip_node state id =
  match state.Mstate.nodes.(id) with
  | Mstate.MGate g -> Mstate.set_node state id (Mstate.MGate { connected = not g.connected })
  | Mstate.MEither e -> Mstate.set_node state id (Mstate.MEither { on_first = not e.on_first })
  | Mstate.MStation _ | Mstate.MMultipath _ | Mstate.MStateless -> assert false

let handle_epoch p branch id =
  let mtts =
    match Compiled.node p.compiled id with
    | Gate { kind = Memoryless { mean_time_to_switch; _ }; _ } -> mean_time_to_switch
    | Either { mean_time_to_switch; _ } -> mean_time_to_switch
    | Gate { kind = Periodic _; _ } | Station _ | Delay _ | Loss _ | Jitter _ | Divert _
    | Multipath _ ->
      assert false
  in
  let reschedule state =
    Mstate.insert state
      ~at:(Tb.add state.Mstate.now p.config.epoch)
      ~prio:Evprio.gate_toggle (Mstate.Gate_epoch id)
  in
  if not p.config.fork_gates then [ { branch with state = reschedule branch.state } ]
  else begin
    (* Exact two-state Markov marginal over one epoch: the state differs
       with probability (1 - e^{-2 epoch / mtts}) / 2. *)
    let p_flip = 0.5 *. (1.0 -. exp (-2.0 *. p.config.epoch /. mtts)) in
    if p_flip <= 0.0 then [ { branch with state = reschedule branch.state } ]
    else begin
      let stay =
        {
          branch with
          state = reschedule branch.state;
          logw = branch.logw +. log_guarded (1.0 -. p_flip);
        }
      in
      let flipped =
        {
          branch with
          state = reschedule (flip_node branch.state id);
          logw = branch.logw +. log_guarded p_flip;
        }
      in
      [ stay; flipped ]
    end
  end

let handle p branch (ev : Mstate.pev) =
  match ev with
  | Mstate.Arrive (link, mpkt) -> arrive p branch link mpkt
  | Mstate.Complete id -> handle_complete p branch id
  | Mstate.Pinger_emit (i, k) -> handle_pinger p branch i k
  | Mstate.Gate_toggle (id, k) -> handle_toggle p branch id k
  | Mstate.Gate_epoch id -> handle_epoch p branch id

(* Cost-cause counters. Registered on the first rollout made while the
   registry is enabled, so the names enter the registry -- and other
   experiments' metric snapshots -- only once a hypothesis is actually
   rolled forward. An Atomic cell rather than [lazy]: pooled filter jobs
   may reach it from several domains at once, and [Metrics.counter] is
   register-or-retrieve, so a racing second registration yields the same
   handles. *)
type counters = {
  forks : Utc_obs.Metrics.counter;
  merged : Utc_obs.Metrics.counter;
  cap_drops : Utc_obs.Metrics.counter;
}

let counters_cell : counters option Atomic.t = Atomic.make None

let record_costs ~forks ~merged ~cap_drops =
  if Utc_obs.Metrics.enabled () then begin
    let c =
      match Atomic.get counters_cell with
      | Some c -> c
      | None ->
        let c =
          {
            forks = Utc_obs.Metrics.counter "model.forward.forks";
            merged = Utc_obs.Metrics.counter "model.forward.merged";
            cap_drops = Utc_obs.Metrics.counter "model.forward.cap_drops";
          }
        in
        Atomic.set counters_cell (Some c);
        c
    in
    Utc_obs.Metrics.add c.forks forks;
    Utc_obs.Metrics.add c.merged merged;
    Utc_obs.Metrics.add c.cap_drops cap_drops
  end

(* Drop the lightest work branch when the total (in-flight plus finished)
   exceeds the cap; a linear scan of the work list. This cap bounds [run]
   only -- the filter's window since the last wakeup, and the fig2
   reference rollout. Planner rollouts go through [expected], where
   [max_branches] bounds the memo instead and nothing is scanned. *)
let drop_lightest work =
  let lightest = List.fold_left (fun acc b -> Float.min acc b.logw) infinity work in
  let dropped = ref false in
  List.filter
    (fun b ->
      if (not !dropped) && b.logw = lightest then begin
        dropped := true;
        false
      end
      else true)
    work

let inject p ~until ~who st (at, pkt) =
  if Tb.( <. ) at st.Mstate.now then invalid_arg (who ^ ": send before state time")
  else if Tb.( >. ) at until then invalid_arg (who ^ ": send after until")
  else begin
    let entry = Compiled.entry p.compiled pkt.Packet.flow in
    Mstate.insert st ~at ~prio:(Evprio.arrival pkt.Packet.flow)
      (Mstate.Arrive (entry, { Mstate.pkt; survive_p = 1.0 }))
  end

(* An event past the window: after [until], or at [until] in a priority
   class the caller's engine had not reached. *)
let beyond ~until ~until_prio (ev : Mstate.event) =
  Tb.( >. ) ev.time until || (Tb.( >=. ) ev.time until && ev.prio >= until_prio)

let run ?(until_prio = max_int) p state ~sends ~until =
  let state = List.fold_left (inject p ~until ~who:"Forward.run") state sends in
  let finished = ref [] in
  let finish branch =
    finished :=
      {
        state = { branch.state with Mstate.now = until };
        logw = branch.logw;
        deliveries = List.rev branch.deliveries_rev;
      }
      :: !finished
  in
  let work = ref [ { state; logw = 0.0; deliveries_rev = [] } ] in
  let work_count = ref 1 in
  let finished_count = ref 0 in
  let forks = ref 0 in
  let cap_drops = ref 0 in
  let rec loop () =
    match !work with
    | [] -> ()
    | branch :: rest ->
      work := rest;
      decr work_count;
      let () =
        match branch.state.Mstate.pending with
        | [] ->
          finish branch;
          incr finished_count
        | ev :: remaining ->
          if beyond ~until ~until_prio ev then begin
            finish branch;
            incr finished_count
          end
          else begin
            let st = { branch.state with Mstate.pending = remaining; now = ev.Mstate.time } in
            let conts = handle p { branch with state = st } ev.Mstate.ev in
            let n = List.length conts in
            if n > 1 then incr forks;
            work := conts @ !work;
            work_count := !work_count + n;
            while !work_count > 0 && !work_count + !finished_count > p.config.max_branches do
              work := drop_lightest !work;
              decr work_count;
              incr cap_drops
            done
          end
      in
      loop ()
  in
  loop ();
  record_costs ~forks:!forks ~merged:0 ~cap_drops:!cap_drops;
  List.rev !finished

(* The deliveries [child] added on top of its parent's [stop] list, oldest
   first. Children of one [handle] call share the parent's list as their
   tail, so the walk ends at the first physically equal cell. *)
let rec fresh_deliveries acc child stop =
  if child == stop then acc
  else
    match child with
    | [] -> acc
    | d :: rest -> fresh_deliveries (d :: acc) rest stop

let expected p state ~sends ~until ~value =
  let state = List.fold_left (inject p ~until ~who:"Forward.expected") state sends in
  (* Continuation values of fork children, keyed on their canonical
     state; created on the first fork, so a chain that never forks
     allocates no table. *)
  let memo = ref None in
  let entries = ref 0 in
  let forks = ref 0 in
  let merged = ref 0 in
  let cap_drops = ref 0 in
  (* Expected value of [branch]'s deliveries so far plus everything after
     its state, weighted by [exp branch.logw]. A non-forking stretch is a
     tail call per event, exactly [run]'s single-branch walk. *)
  let rec walk branch =
    match branch.state.Mstate.pending with
    | ev :: remaining when not (beyond ~until ~until_prio:max_int ev) -> (
      let st = { branch.state with Mstate.pending = remaining; now = ev.Mstate.time } in
      match handle p { branch with state = st } ev.Mstate.ev with
      | [ next ] -> walk next
      | children ->
        incr forks;
        let here = exp branch.logw *. value (List.rev branch.deliveries_rev) in
        List.fold_left
          (fun acc (child : branch) ->
            let fresh = fresh_deliveries [] child.deliveries_rev branch.deliveries_rev in
            acc +. (exp child.logw *. (value fresh +. continuation child.state)))
          here children)
    | _ :: _ | [] -> exp branch.logw *. value (List.rev branch.deliveries_rev)
  and continuation state =
    let table =
      match !memo with
      | Some table -> table
      | None ->
        let table = Hashtbl.create 64 in
        memo := Some table;
        table
    in
    let key = Mstate.canonical state in
    match Hashtbl.find_opt table key with
    | Some v ->
      incr merged;
      v
    | None ->
      if !entries >= p.config.max_branches then begin
        incr cap_drops;
        0.0
      end
      else begin
        incr entries;
        let v = walk { state; logw = 0.0; deliveries_rev = [] } in
        Hashtbl.replace table key v;
        v
      end
  in
  (* [0.0 +.] keeps a non-forking rollout bit-identical to summing [run]'s
     single outcome from zero (it differs only for a -0.0 value). *)
  let total = 0.0 +. walk { state; logw = 0.0; deliveries_rev = [] } in
  record_costs ~forks:!forks ~merged:!merged ~cap_drops:!cap_drops;
  total
