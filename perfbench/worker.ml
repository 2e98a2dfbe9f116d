(* One round of one benchmark workload, in a fresh process.

     worker.exe --workload W --seed N --mode round|traced|reference|kernel

   [round] times the workload through the benchmark's own wiring of the
   library: a timing [~decide] wrapper around [Planner.decide ~cache]
   (exactly the ISender's default decider), and a timing wrapper around
   [Tcp.Sender.on_delivery] for the Reno crowd. [traced] is the same
   round with the metrics registry enabled; it also reports the
   per-layer numbers read from the profiler spans, the counters, the
   pool's cost handles and the planner caches. [reference] runs the
   library's own entry point ([Harness.run], [Families.run_family],
   [Harness.run_many], [Versus.many_senders]) on the same inputs,
   untimed, so the driver can check that the benchmark's wiring computes
   exactly what the library computes. [kernel] times the machine-speed
   reference kernel alone.

   Each workload's physics is pinned to its experiment's own engine seed,
   because the cost depends chaotically on any input that reaches the
   simulation (README, finding 4). [--seed] is the engine seed of the
   Reno crowd only, whose elements draw no random numbers.

   Every mode prints one JSON object on one line. Wall time is read only
   through [Utc_obs.Obs_clock]; the pool is sized by [UTC_DOMAINS], and
   the worker never uses [Domain] directly. *)

open Utc_net
module Clock = Utc_obs.Obs_clock
module Metrics = Utc_obs.Metrics
module Profile = Utc_obs.Profile
module Pool = Utc_parallel.Pool
module Engine = Utc_sim.Engine
module Belief = Utc_inference.Belief
module Priors = Utc_inference.Priors
module Forward = Utc_model.Forward
module Mstate = Utc_model.Mstate
module Utility = Utc_utility.Utility
module Planner = Utc_core.Planner
module Isender = Utc_core.Isender
module Receiver = Utc_core.Receiver
module Runtime = Utc_elements.Runtime
module Sender = Utc_tcp.Sender
module Harness = Utc_experiments.Harness
module Families = Utc_experiments.Families
module Versus = Utc_experiments.Versus
module Scalability = Utc_experiments.Scalability

(* ---------- measurement helpers ---------- *)

(* Words allocated by the program: minor + major - promoted, so a word
   promoted from the minor heap is counted once. *)
let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let bits_per_s deliveries ~duration =
  float_of_int (List.fold_left (fun acc (_, pkt) -> acc + pkt.Packet.bits) 0 deliveries)
  /. duration

(* Exact text for a float, so the output check compares bits. *)
let exact x = Printf.sprintf "%h" x

(* What a round measured. [check] is the canonical text of the outputs;
   the rest feeds the end-to-end and per-layer metrics. *)
type round = {
  setup_s : float;
  wall_s : float;
  sim_s : float;
  decide_s : float list;
  utility_bps : float;
  check : string;
  alloc_words : float;
  top_heap_words : int;
  caches : (int * int) list;
  size_max : int;
  slowest_member_s : float;
  member_wall_s : float;
}

let empty =
  {
    setup_s = 0.0;
    wall_s = 0.0;
    sim_s = 0.0;
    decide_s = [];
    utility_bps = 0.0;
    check = "";
    alloc_words = 0.0;
    top_heap_words = 0;
    caches = [];
    size_max = 0;
    slowest_member_s = 0.0;
    member_wall_s = 0.0;
  }

let timed f =
  let t0 = Clock.now () in
  let v = f () in
  (v, Clock.elapsed_since t0)

(* Time [run] (the timed phase), count the words it allocates, and read
   the peak heap at its end. *)
let timed_phase run =
  let w0 = allocated_words () in
  let (), wall_s = timed run in
  (wall_s, allocated_words () -. w0, (Gc.quick_stat ()).Gc.top_heap_words)

(* A round's set-up time is the median of [setups] set-ups: the one the
   round runs on, then [setups - 1] more after the timed phase, so their
   garbage cannot raise the round's peak heap. *)
let setups = 9

let setup_median ~first again =
  let a = Array.of_list (first :: List.init (setups - 1) (fun _ -> again ())) in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* ---------- machine-speed reference ---------- *)

(* A fixed piece of allocation-heavy OCaml that uses nothing from the
   repository: balanced-map inserts and a traversal, list maps and folds,
   hash-table inserts, with a small heap. Its wall time tracks how fast
   the machine runs OCaml at the moment; run.py runs it in processes of
   their own just before and just after each round and scales the
   round's wall times by it (README, "Machine-speed reference"). No
   change to the program can change it. *)
module Imap = Map.Make (Int)

let reference_kernel () =
  let acc = ref 0 in
  for r = 1 to 4 do
    let m = ref Imap.empty in
    for i = 1 to 10_000 do
      m := Imap.add ((i * 7919 + r) land 0xffff) i !m
    done;
    Imap.iter (fun k v -> acc := !acc + (k lxor v)) !m;
    let l = List.init 20_000 (fun i -> float_of_int (i + r) *. 1.5) in
    acc := !acc + int_of_float (List.fold_left ( +. ) 0.0 (List.map (fun x -> x +. 1.0) l));
    let h = Hashtbl.create 1024 in
    for i = 1 to 10_000 do
      Hashtbl.replace h (i * 31) (string_of_int i)
    done;
    acc := !acc + Hashtbl.length h
  done;
  !acc

let kernel_s () =
  let kernels = 3 in
  let a = Array.init kernels (fun _ -> snd (timed reference_kernel)) in
  Array.sort Float.compare a;
  a.(kernels / 2)

(* ---------- the ISender, wired by the benchmark ---------- *)

(* The wiring of [Harness.run] and [Families.run_family], without the
   experiment's per-wakeup posterior sampling: build the belief from the
   prior, then the ground truth, receiver and sender, then run. [check]
   turns the finished run into the outputs the library reports. *)
let run_isender ?(repeat_setup = true) ~span ~make_belief ~truth ~config ~engine_seed ~duration
    ~alpha ~check () =
  let samples = ref [] and size_max = ref 0 in
  let build () =
    let belief = make_belief () in
    let engine = Engine.create ~seed:engine_seed () in
    let receiver = Receiver.create engine in
    let runtime =
      Runtime.build engine (Compiled.compile_exn truth) (Receiver.callbacks receiver)
    in
    let cache = Planner.make_cache () in
    let decide belief ~now ~pending ~make_packet =
      let start = Clock.now () in
      let r = Planner.decide ~cache config.Isender.planner ~belief ~now ~pending ~make_packet in
      samples := Clock.elapsed_since start :: !samples;
      r
    in
    let isender =
      Isender.create ~decide engine config ~belief ~inject:(fun pkt ->
          Runtime.inject runtime Flow.Primary pkt)
    in
    Receiver.subscribe receiver Flow.Primary (fun _ pkt -> Isender.on_ack isender pkt);
    Isender.on_wakeup isender (fun _ s ->
        size_max := max !size_max (Belief.size (Isender.belief s)));
    Isender.start isender;
    (engine, receiver, isender, cache)
  in
  let (engine, receiver, isender, cache), first_setup = timed build in
  let wall_s, alloc_words, top_heap_words =
    timed_phase (fun () ->
        Metrics.span ~name:span ~root:true
          ~now:(fun () -> Engine.now engine)
          (fun () -> Engine.run ~until:duration engine))
  in
  let setup_s =
    if repeat_setup then setup_median ~first:first_setup (fun () -> snd (timed build))
    else first_setup
  in
  let primary = Receiver.deliveries receiver Flow.Primary in
  let cross = Receiver.deliveries receiver Flow.Cross in
  {
    setup_s;
    wall_s;
    sim_s = duration;
    decide_s = List.rev !samples;
    utility_bps = bits_per_s primary ~duration +. (alpha *. bits_per_s cross ~duration);
    check = check isender receiver ~primary ~cross;
    alloc_words;
    top_heap_words;
    caches = [ Planner.cache_stats cache ];
    size_max = !size_max;
    slowest_member_s = 0.0;
    member_wall_s = 0.0;
  }

(* --- the §4 experiment (Harness.run) --- *)

let truth_cell (p : Priors.fig2_params) = (p.link_bps, p.pinger_pps, p.loss_rate, p.buffer_bits)

let mass_on_truth posterior =
  let truth = truth_cell Priors.paper_truth in
  List.fold_left (fun acc (p, w) -> if truth_cell p = truth then acc +. w else acc) 0.0 posterior

let fig3_check ~sent ~acked ~primary ~cross ~tail_drops ~tail_drops_cross ~rejected ~posterior
    ~duration ~alpha =
  Printf.sprintf
    "sent=%d acked=%d delivered=%d cross=%d tail_drops=%d tail_drops_cross=%d rejected=%d \
     truth_mass=%s utility=%s"
    sent acked (List.length primary) (List.length cross) tail_drops tail_drops_cross rejected
    (exact (mass_on_truth posterior))
    (exact (bits_per_s primary ~duration +. (alpha *. bits_per_s cross ~duration)))

let fig3_round ?repeat_setup ~span (c : Harness.config) =
  let forward_config = { Forward.default_config with epoch = c.epoch; loss_mode = c.loss_mode } in
  let utility =
    Utility.make ~alpha:c.alpha ~kappa:c.kappa ~cross_discounted:c.cross_discounted
      ~latency_penalty:c.latency_penalty ()
  in
  let planner = { Planner.default_config with utility; delays = c.planner_delays } in
  run_isender ?repeat_setup ~span
    ~make_belief:(fun () ->
      Belief.create ~max_hyps:c.max_hyps ~cap_policy:c.cap_policy
        (Priors.seeds ~config:forward_config c.prior))
    ~truth:c.truth ~config:{ Isender.default_config with planner } ~engine_seed:c.seed
    ~duration:c.duration ~alpha:c.alpha
    ~check:(fun isender receiver ~primary ~cross ->
      let tail =
        List.filter (fun (_, _, r, _) -> r = Runtime.Tail_drop) (Receiver.drops receiver)
      in
      fig3_check ~sent:(Isender.sent_count isender) ~acked:(Isender.acked_count isender) ~primary
        ~cross ~tail_drops:(List.length tail)
        ~tail_drops_cross:
          (List.length
             (List.filter (fun (_, _, _, pkt) -> Flow.equal pkt.Packet.flow Flow.Cross) tail))
        ~rejected:(Isender.rejected_updates isender)
        ~posterior:(Belief.posterior (Isender.belief isender))
        ~duration:c.duration ~alpha:c.alpha)
    ()

let fig3_reference_check (r : Harness.result) =
  fig3_check ~sent:r.sent_count ~acked:r.acked_count ~primary:r.primary_deliveries
    ~cross:r.cross_deliveries ~tail_drops:r.tail_drops ~tail_drops_cross:r.tail_drops_cross
    ~rejected:r.rejected_updates ~posterior:r.final_posterior ~duration:r.config.duration
    ~alpha:r.config.alpha

let fig3_paper_duration = 80.0

let fig3_paper_config = { Harness.default with duration = fig3_paper_duration }

(* --- bursty cross traffic: Families.bursty_cross's model, prior and truth --- *)

let bursty_model (p : Families.bursty) =
  {
    Topology.sources =
      [
        Topology.endpoint Flow.Primary;
        Topology.pinger
          ~access:(Topology.jitter ~seconds:0.8 ~probability:p.jitter_probability)
          ~flow:Flow.Cross ~rate_pps:0.4 ();
      ];
    shared =
      Topology.series
        [ Topology.buffer ~capacity_bits:96_000; Topology.throughput ~rate_bps:p.link_bps ];
  }

let bursty_truth = { Families.link_bps = 12_000.0; jitter_probability = 0.5 }
let bursty_engine_seed = 17
let bursty_duration = 6.0

let bursty_prior =
  Priors.uniform
    (List.concat_map
       (fun link_bps ->
         List.map
           (fun jitter_probability -> { Families.link_bps; jitter_probability })
           [ 0.0; 0.5; 1.0 ])
       [ 10_000.0; 12_000.0; 14_000.0 ])

let bursty_check ~sent ~delivered ~on_truth ~map_is_truth ~rejected ~late_rate =
  Printf.sprintf
    "sent=%d delivered=%d posterior_on_truth=%s map_is_truth=%b rejected=%d late_rate=%s" sent
    delivered (exact on_truth) map_is_truth rejected (exact late_rate)

let bursty_round () =
  run_isender ~span:"family.run"
    ~make_belief:(fun () ->
      Belief.create
        (List.map
           (fun (p, w) ->
             let compiled = Compiled.compile_exn (bursty_model p) in
             ( p,
               w,
               Forward.prepare Forward.default_config compiled,
               Mstate.initial ~epoch:1.0 compiled ))
           bursty_prior))
    ~truth:(bursty_model bursty_truth) ~config:Isender.default_config
    ~engine_seed:bursty_engine_seed ~duration:bursty_duration
    ~alpha:Isender.default_config.planner.utility.alpha
    ~check:(fun isender receiver ~primary:_ ~cross:_ ->
      (* The same reductions as [Families.run_family]. *)
      let posterior = Belief.posterior (Isender.belief isender) in
      let half = bursty_duration /. 2.0 in
      bursty_check ~sent:(Isender.sent_count isender)
        ~delivered:(Receiver.delivered_count receiver Flow.Primary)
        ~on_truth:
          (List.fold_left
             (fun acc (p, w) -> if p = bursty_truth then acc +. w else acc)
             0.0 posterior)
        ~map_is_truth:
          (match posterior with
          | (best, _) :: _ -> best = bursty_truth
          | [] -> false)
        ~rejected:(Isender.rejected_updates isender)
        ~late_rate:
          (float_of_int
             (List.length (List.filter (fun (t, _) -> t >= half) (Isender.sent isender)))
          /. half))
    ()

let bursty_reference () =
  let r =
    Families.run_family ~seed:bursty_engine_seed ~duration:bursty_duration ~name:"bursty-cross"
      ~prior:bursty_prior ~model:bursty_model ~truth:(bursty_model bursty_truth)
      ~truth_params:bursty_truth ()
  in
  bursty_check ~sent:r.sent ~delivered:r.delivered ~on_truth:r.posterior_on_truth
    ~map_is_truth:r.map_is_truth ~rejected:r.rejected_updates ~late_rate:r.late_rate

(* --- the α × engine-seed sweep over the thinned prior (Harness.run_many) --- *)

let sweep_duration = 10.0

let sweep_configs () =
  let prior = Scalability.thin 8 (Priors.paper_prior ()) in
  List.concat_map
    (fun engine_seed ->
      List.map
        (fun alpha ->
          { Harness.default with seed = engine_seed; duration = sweep_duration; alpha; prior })
        [ 0.9; 1.0; 2.5; 5.0 ])
    [ 1; 2 ]

(* The sweep's pool, as it was before its domains were joined. *)
let sweep_pool = ref None

let sweep_round () =
  (* Set-up is the members' configurations (the thinned prior) and the
     default pool: created on first use, sized by UTC_DOMAINS, with the
     Adaptive policy's dispatch calibration when it has several domains. *)
  let (pool, configs), first_setup = timed (fun () -> (Pool.default (), sweep_configs ())) in
  (* The fan of [Harness.run_many]: the same pool and cost handle, one
     job per member. The worker domains are joined before the words are
     read: [Gc.quick_stat] sees a live domain's words only as its minor
     heap is collected, and all of them once the domain has ended. *)
  let w0 = allocated_words () in
  let t1 = Clock.now () in
  let outs =
    Pool.map_list ~cost:Harness.run_cost pool
      ~f:(fun (i, c) ->
        fig3_round ~repeat_setup:false ~span:(Printf.sprintf "harness.run{run=\"%d\"}" i) c)
      (List.mapi (fun i c -> (i, c)) configs)
  in
  let wall_s = Clock.elapsed_since t1 in
  let domains = Pool.domains pool in
  sweep_pool := Some (domains, Pool.overhead_ns pool);
  Pool.set_default_domains 1;
  let alloc_words = allocated_words () -. w0 in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let setup_s =
    setup_median ~first:first_setup (fun () ->
        let (extra, _), s =
          timed (fun () -> (Pool.create ~policy:Pool.Adaptive ~domains (), sweep_configs ()))
        in
        Pool.shutdown extra;
        s)
  in
  let n = float_of_int (List.length outs) in
  let member_s o = o.setup_s +. o.wall_s in
  {
    setup_s;
    wall_s;
    sim_s = List.fold_left (fun acc o -> acc +. o.sim_s) 0.0 outs;
    decide_s = List.concat_map (fun o -> o.decide_s) outs;
    utility_bps = List.fold_left (fun acc o -> acc +. o.utility_bps) 0.0 outs /. n;
    check = String.concat "\n" (List.map (fun o -> o.check) outs);
    alloc_words;
    top_heap_words;
    caches = List.concat_map (fun o -> o.caches) outs;
    size_max = List.fold_left (fun acc o -> max acc o.size_max) 0 outs;
    slowest_member_s = List.fold_left (fun acc o -> Float.max acc (member_s o)) 0.0 outs;
    member_wall_s = List.fold_left (fun acc o -> acc +. member_s o) 0.0 outs;
  }

(* --- the Reno crowd: Versus.many_senders, wired by the benchmark --- *)

let crowd_senders = 256
let crowd_duration = 300.0

let crowd_check ~rows ~total_drops ~jain =
  String.concat ";"
    (Printf.sprintf "drops=%d jain=%s" total_drops (exact jain)
    :: List.map (fun (s, d, q) -> Printf.sprintf "%d,%d,%d" s d q) rows)

let sent_cf = Metrics.counter_family "versus.flow.sent"
let delivered_cf = Metrics.counter_family "versus.flow.delivered"

(* [Versus.many_senders] with the engine run in one-second slices and
   every [Sender.on_delivery] call timed. A call takes a few
   microseconds, near the wall clock's resolution, so each sample is a
   per-slice mean: handler time over handler calls. *)
let crowd_round ~seed =
  let n = crowd_senders in
  let flows = List.init n (fun i -> Flow.Aux i) in
  let handler_s = ref 0.0 and handler_calls = ref 0 in
  let build () =
    let truth =
      {
        Topology.sources = List.map Topology.endpoint flows;
        shared =
          Topology.series
            [
              Topology.buffer ~capacity_bits:(48_000 * n);
              Topology.throughput ~rate_bps:(12_000.0 *. float_of_int n);
            ];
      }
    in
    let engine = Engine.create ~seed () in
    let receiver = Receiver.create engine in
    let runtime =
      Runtime.build engine (Compiled.compile_exn truth) (Receiver.callbacks receiver)
    in
    let tcps =
      List.map
        (fun flow ->
          let labels = [ ("flow", Flow.to_string flow) ] in
          let sent_c = Metrics.labeled sent_cf labels in
          let delivered_c = Metrics.labeled delivered_cf labels in
          let tcp =
            Sender.create engine { Sender.default_config with flow } ~inject:(fun pkt ->
                Metrics.incr sent_c;
                Runtime.inject runtime flow pkt)
          in
          Receiver.subscribe receiver flow (fun _ pkt ->
              Metrics.incr delivered_c;
              let start = Clock.now () in
              Sender.on_delivery tcp pkt;
              handler_s := !handler_s +. Clock.elapsed_since start;
              incr handler_calls);
          tcp)
        flows
    in
    List.iter Sender.start tcps;
    (engine, receiver, tcps)
  in
  let (engine, receiver, tcps), first_setup = timed build in
  let slices = ref [] in
  let wall_s, alloc_words, top_heap_words =
    timed_phase (fun () ->
        Metrics.span ~name:"versus.run" ~root:true
          ~now:(fun () -> Engine.now engine)
          (fun () ->
            for k = 1 to Float.to_int crowd_duration do
              handler_s := 0.0;
              handler_calls := 0;
              Engine.run ~until:(float_of_int k) engine;
              if !handler_calls > 0 then
                slices := (!handler_s /. float_of_int !handler_calls) :: !slices
            done))
  in
  let drop_counts = Array.make n 0 in
  let drops = Receiver.drops receiver in
  List.iter
    (fun (_, _, _, pkt) ->
      match pkt.Packet.flow with
      | Flow.Aux i when i >= 0 && i < n -> drop_counts.(i) <- drop_counts.(i) + 1
      | _ -> ())
    drops;
  let throughputs =
    List.map (fun flow -> Receiver.throughput receiver flow ~since:0.0 ~until:crowd_duration) flows
  in
  let check =
    crowd_check
      ~rows:
        (List.mapi
           (fun i tcp -> (Sender.sent_count tcp, Sender.delivered tcp, drop_counts.(i)))
           tcps)
      ~total_drops:(List.length drops) ~jain:(Utc_stats.Fairness.jain throughputs)
  in
  {
    empty with
    setup_s = setup_median ~first:first_setup (fun () -> snd (timed build));
    wall_s;
    sim_s = crowd_duration;
    decide_s = List.rev !slices;
    utility_bps = List.fold_left ( +. ) 0.0 throughputs;
    check;
    alloc_words;
    top_heap_words;
  }

(* ---------- modes ---------- *)

let round ~workload ~seed =
  match workload with
  | "fig3_paper" -> fig3_round ~span:"harness.run" fig3_paper_config
  | "bursty_cross" -> bursty_round ()
  | "fig3_sweep" -> sweep_round ()
  | "reno_crowd" -> crowd_round ~seed
  | w -> invalid_arg ("unknown workload " ^ w)

let reference ~workload ~seed =
  match workload with
  | "fig3_paper" -> fig3_reference_check (Harness.run fig3_paper_config)
  | "bursty_cross" -> bursty_reference ()
  | "fig3_sweep" ->
    String.concat "\n" (List.map fig3_reference_check (Harness.run_many (sweep_configs ())))
  | "reno_crowd" ->
    let m = Versus.many_senders ~seed ~duration:crowd_duration ~senders:crowd_senders () in
    crowd_check
      ~rows:
        (List.map
           (fun (r : Versus.flow_row) -> (r.f_sent, r.f_delivered, r.f_queue_drops))
           m.rows)
      ~total_drops:m.total_drops ~jain:m.many_jain
  | w -> invalid_arg ("unknown workload " ^ w)

(* ---------- per-layer numbers from a traced round ---------- *)

(* Sum a span axis over every profile node with this name, wherever it
   sits in the tree (the sweep has one subtree per member). *)
let by_name nodes name f =
  List.fold_left (fun acc (n : Profile.node) -> if n.name = name then acc +. f n else acc) 0.0 nodes

let ratio a b = if b > 0.0 then a /. b else 0.0
let finite x = if Float.is_nan x then 0.0 else x

let cost_fields (cost : Pool.Cost.t) =
  let site = "parallel." ^ Pool.Cost.label cost in
  let engaged, reason =
    match Pool.Cost.last_decision cost with
    | Some d -> (d.engaged, d.reason)
    | None -> (false, "no-decision")
  in
  ( [
      (site ^ ".engaged", if engaged then 1.0 else 0.0);
      (site ^ ".per_item_ns", finite (Pool.Cost.per_item_ns cost));
    ],
    (site, reason) )

let layers (r : round) ~gc0 ~gc1 =
  let snap = Metrics.snapshot ~at:r.sim_s in
  let nodes = Profile.flatten (Profile.of_spans snap.spans) in
  let counter name = float_of_int (Option.value (List.assoc_opt name snap.counters) ~default:0) in
  let calls name = by_name nodes name (fun n -> float_of_int n.calls) in
  let wall name = by_name nodes name (fun n -> n.wall) in
  let self_wall name = by_name nodes name (fun n -> n.self_wall) in
  let words name = by_name nodes name (fun n -> n.minor_words +. n.major_words) in
  let hits, misses = List.fold_left (fun (h, m) (h', m') -> (h + h', m + m')) (0, 0) r.caches in
  let decide_calls = calls "planner.decide" in
  let wakeups = counter "core.isender.wakeups" in
  let updates = calls "belief.update" in
  let executed = counter "sim.engine.executed" in
  let scheduled = counter "sim.engine.scheduled" in
  let on_delivery_calls = calls "tcp.on_delivery" in
  let domains, overhead_ns =
    match !sweep_pool with
    | Some p -> p
    | None -> (Pool.domains (Pool.default ()), Pool.overhead_ns (Pool.default ()))
  in
  let costs = List.map cost_fields [ Harness.run_cost; Belief.expand_cost; Planner.price_cost ] in
  let minor = gc1.Gc.minor_words -. gc0.Gc.minor_words in
  let values =
    [
      ("core.planner.decide_calls", decide_calls);
      ("core.planner.price_self_s", self_wall "price");
      ("core.planner.decide_mwords_per_call", ratio (words "planner.decide") decide_calls /. 1e6);
      ("core.planner.cache_hit_ratio", ratio (float_of_int hits) (float_of_int (hits + misses)));
      ("core.isender.wakeups", wakeups);
      ("core.isender.wakeup_ms_mean", 1e3 *. ratio (wall "wakeup") (calls "wakeup"));
      ("core.isender.decisions_per_wakeup", ratio (counter "core.planner.decisions") wakeups);
      ("inference.belief.update_calls", updates);
      ("inference.belief.update_ms_mean", 1e3 *. ratio (wall "belief.update") updates);
      ("inference.belief.expand_self_s", self_wall "expand");
      ("inference.belief.compact_self_s", self_wall "compact");
      ("inference.belief.update_mwords", words "belief.update" /. 1e6);
      ("inference.belief.size_max", float_of_int r.size_max);
      ("inference.belief.rejected_ratio", ratio (counter "inference.belief.all_rejected") updates);
      ("sim.engine.executed", executed);
      ("sim.engine.cancelled_ratio", ratio (counter "sim.engine.cancelled") scheduled);
      ("sim.engine.self_s", self_wall "engine.run");
      ("sim.engine.events_per_s", ratio executed (wall "engine.run"));
      ("elements.runtime.drops", counter "elements.runtime.drops");
      ("tcp.on_delivery_us_per_call", 1e6 *. ratio (wall "tcp.on_delivery") on_delivery_calls);
      ("tcp.retransmissions", counter "tcp.sender.retransmissions");
      ("parallel.pool.domains", float_of_int domains);
      ("parallel.pool.overhead_ns", finite overhead_ns);
    ]
    @ List.concat_map fst costs
    @ [
        ("parallel.sweep.effective_parallelism", ratio r.member_wall_s r.wall_s);
        ("experiments.harness.slowest_member_s", r.slowest_member_s);
        ("gc.minor_mwords_per_sim_s", ratio minor r.sim_s /. 1e6);
        ("gc.promoted_ratio", ratio (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) minor);
        ( "gc.major_collections",
          float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
      ]
  in
  (values, List.map snd costs)

(* ---------- output ---------- *)

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"
let json_string s = "\"" ^ String.escaped s ^ "\""
let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let round_fields (r : round) =
  [
    ("setup_s", json_number r.setup_s);
    ("wall_s", json_number r.wall_s);
    ("sim_s", json_number r.sim_s);
    ( "decide_ms",
      "[" ^ String.concat "," (List.map (fun s -> json_number (1e3 *. s)) r.decide_s) ^ "]" );
    ("utility_bps", json_number r.utility_bps);
    ("alloc_words", json_number r.alloc_words);
    ("top_heap_words", json_number (float_of_int r.top_heap_words));
    ("word_bytes", string_of_int (Sys.word_size / 8));
    ("check", json_string r.check);
  ]

let environment () =
  [
    ("ocaml", json_string Sys.ocaml_version);
    ("recommended_domains", string_of_int (Pool.recommended ()));
    ( "pool_domains",
      string_of_int
        (match !sweep_pool with
        | Some (domains, _) -> domains
        | None -> Pool.default_domains ()) );
  ]

let () =
  let workload = ref "" and seed = ref 0 and mode = ref "round" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME fig3_paper|bursty_cross|fig3_sweep|reno_crowd");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--mode", Arg.Set_string mode, "round|traced|reference|kernel");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "worker.exe --workload NAME --seed N --mode round|traced|reference|kernel";
  let workload = !workload and seed = !seed in
  let fields =
    match !mode with
    | "reference" -> [ ("check", json_string (reference ~workload ~seed)) ]
    | "round" -> round_fields (round ~workload ~seed)
    | "kernel" -> [ ("kernel_s", json_number (kernel_s ())) ]
    | "traced" ->
      Metrics.enable ();
      let gc0 = Gc.quick_stat () in
      let r = round ~workload ~seed in
      let gc1 = Gc.quick_stat () in
      let values, reasons = layers r ~gc0 ~gc1 in
      round_fields r
      @ [
          ("layers", json_object (List.map (fun (k, v) -> (k, json_number v)) values));
          ("reasons", json_object (List.map (fun (k, v) -> (k, json_string v)) reasons));
        ]
    | m -> raise (Arg.Bad ("unknown mode " ^ m))
  in
  (* lint:allow R8 -- the worker's one result line, read by run.py *)
  print_endline (json_object (fields @ environment ()))
