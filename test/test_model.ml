(* Tests for the belief-state interpreter: persistent states, forking
   semantics, likelihood handling, window cuts, compaction. *)
open Utc_net
module Mstate = Utc_model.Mstate
module Forward = Utc_model.Forward

let net ?(sources = [ Topology.endpoint Flow.Primary ]) shared = { Topology.sources; shared }

let station shared_rate capacity =
  net (Topology.series [ Topology.buffer ~capacity_bits:capacity; Topology.throughput ~rate_bps:shared_rate ])

let prepare ?(config = Forward.default_config) topology =
  let compiled = Compiled.compile_exn topology in
  (Forward.prepare config compiled, compiled)

let pkt ?(flow = Flow.Primary) ~seq ~at () = (at, Packet.make ~flow ~seq ~sent_at:at ())

let primary_deliveries (o : Forward.outcome) =
  List.filter
    (fun (d : Forward.delivery) -> Flow.equal d.packet.Packet.flow Flow.Primary)
    o.deliveries

let single = function
  | [ o ] -> o
  | outcomes -> Alcotest.failf "expected a single outcome, got %d" (List.length outcomes)

let deterministic_station_timings () =
  let prepared, compiled = prepare (station 12_000.0 96_000) in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let outcome =
    single (Forward.run prepared state ~sends:[ pkt ~seq:0 ~at:0.0 (); pkt ~seq:1 ~at:0.1 () ] ~until:10.0)
  in
  let times = List.map (fun (d : Forward.delivery) -> (d.time, d.packet.Packet.seq)) outcome.deliveries in
  Alcotest.(check bool) "fifo timings" true (times = [ (1.0, 0); (2.0, 1) ]);
  Alcotest.(check (float 1e-9)) "weight 1" 0.0 outcome.logw

let incremental_equals_oneshot () =
  (* Running 0->4->10 with sends split across windows must equal one run
     0->10: packets in flight survive in the persistent state. *)
  let prepared, compiled = prepare (station 12_000.0 96_000) in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let sends1 = [ pkt ~seq:0 ~at:0.5 (); pkt ~seq:1 ~at:3.5 () ] in
  let sends2 = [ pkt ~seq:2 ~at:4.5 () ] in
  let o1 = single (Forward.run prepared state ~sends:sends1 ~until:4.0) in
  let o2 = single (Forward.run prepared o1.Forward.state ~sends:sends2 ~until:10.0) in
  let both = o1.Forward.deliveries @ o2.Forward.deliveries in
  let oneshot = single (Forward.run prepared state ~sends:(sends1 @ sends2) ~until:10.0) in
  Alcotest.(check bool) "same deliveries" true (both = oneshot.Forward.deliveries);
  Alcotest.(check string) "same final state" (Mstate.canonical o2.Forward.state)
    (Mstate.canonical oneshot.Forward.state)

let tail_drop_in_model () =
  let prepared, compiled = prepare (station 12_000.0 12_000) in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let sends = [ pkt ~seq:0 ~at:0.0 (); pkt ~seq:1 ~at:0.1 (); pkt ~seq:2 ~at:0.2 () ] in
  let outcome = single (Forward.run prepared state ~sends ~until:10.0) in
  Alcotest.(check int) "third dropped silently" 2 (List.length outcome.Forward.deliveries)

let prefill_occupies_service_and_queue () =
  let prepared, compiled = prepare (station 12_000.0 96_000) in
  let prefill_packets =
    List.init 3 (fun i -> Packet.make ~flow:Flow.Cross ~seq:(-1 - i) ~sent_at:0.0 ())
  in
  let state = Mstate.initial ~prefill:[ (0, prefill_packets) ] ~epoch:1.0 compiled in
  Alcotest.(check int) "fullness counts service + queue" 36_000 (Mstate.station_bits state 0);
  let outcome = single (Forward.run prepared state ~sends:[ pkt ~seq:0 ~at:0.0 () ] ~until:10.0) in
  let ours = primary_deliveries outcome in
  (* Our packet waits behind 3 seconds of prefill. *)
  Alcotest.(check bool) "queued behind prefill" true
    (List.map (fun (d : Forward.delivery) -> d.time) ours = [ 4.0 ])

let likelihood_loss_scales_survival () =
  let topology = net (Topology.series [ Topology.throughput ~rate_bps:12_000.0; Topology.loss ~rate:0.25 ]) in
  let prepared, compiled = prepare topology in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let outcome = single (Forward.run prepared state ~sends:[ pkt ~seq:0 ~at:0.0 () ] ~until:5.0) in
  match primary_deliveries outcome with
  | [ d ] -> Alcotest.(check (float 1e-12)) "survive 0.75" 0.75 d.Forward.survive_p
  | _ -> Alcotest.fail "expected one annotated delivery"

let fork_loss_partitions_weight () =
  let config = { Forward.default_config with loss_mode = `Fork } in
  let topology = net (Topology.series [ Topology.throughput ~rate_bps:12_000.0; Topology.loss ~rate:0.25 ]) in
  let prepared, compiled = prepare ~config topology in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let outcomes = Forward.run prepared state ~sends:[ pkt ~seq:0 ~at:0.0 () ] ~until:5.0 in
  Alcotest.(check int) "two branches" 2 (List.length outcomes);
  let total = List.fold_left (fun acc (o : Forward.outcome) -> acc +. exp o.logw) 0.0 outcomes in
  Alcotest.(check (float 1e-9)) "weights partition" 1.0 total;
  let delivered_mass =
    List.fold_left
      (fun acc (o : Forward.outcome) ->
        if primary_deliveries o <> [] then acc +. exp o.logw else acc)
      0.0 outcomes
  in
  Alcotest.(check (float 1e-9)) "delivery mass = 1 - p" 0.75 delivered_mass

let loss_before_queue_always_forks () =
  (* A loss element in front of a station has lingering consequences, so
     likelihood mode must not be applied there. *)
  let topology = net (Topology.series [ Topology.loss ~rate:0.5; Topology.throughput ~rate_bps:12_000.0 ]) in
  let prepared, compiled = prepare topology in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let outcomes = Forward.run prepared state ~sends:[ pkt ~seq:0 ~at:0.0 () ] ~until:5.0 in
  Alcotest.(check int) "forks despite likelihood mode" 2 (List.length outcomes)

let jitter_forks () =
  let topology = net (Topology.jitter ~seconds:0.5 ~probability:0.3) in
  let prepared, compiled = prepare topology in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let outcomes = Forward.run prepared state ~sends:[ pkt ~seq:0 ~at:1.0 () ] ~until:5.0 in
  Alcotest.(check int) "two branches" 2 (List.length outcomes);
  let by_time =
    List.map
      (fun (o : Forward.outcome) ->
        match o.deliveries with
        | [ d ] -> (d.Forward.time, exp o.logw)
        | _ -> Alcotest.fail "one delivery per branch")
      outcomes
  in
  Alcotest.(check bool) "delayed branch w=0.3" true
    (List.exists (fun (t, w) -> t = 1.5 && Float.abs (w -. 0.3) < 1e-9) by_time);
  Alcotest.(check bool) "straight branch w=0.7" true
    (List.exists (fun (t, w) -> t = 1.0 && Float.abs (w -. 0.7) < 1e-9) by_time)

let gate_epoch_fork_probability () =
  let topology = net (Topology.intermittent ~mean_time_to_switch:10.0 ()) in
  let prepared, compiled = prepare topology in
  let state = Mstate.initial ~epoch:1.0 compiled in
  (* One epoch at t=1: the state flips with (1 - e^{-2/10}) / 2. *)
  let outcomes = Forward.run prepared state ~sends:[] ~until:1.5 in
  Alcotest.(check int) "stay + flip" 2 (List.length outcomes);
  let p_flip = 0.5 *. (1.0 -. exp (-0.2)) in
  let flipped =
    List.find
      (fun (o : Forward.outcome) -> not (Mstate.gate_connected o.Forward.state 0))
      outcomes
  in
  Alcotest.(check (float 1e-9)) "flip probability" p_flip (exp flipped.Forward.logw)

let frozen_gates_do_not_fork () =
  let config = { Forward.default_config with fork_gates = false } in
  let topology = net (Topology.intermittent ~mean_time_to_switch:10.0 ()) in
  let prepared, compiled = prepare ~config topology in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let outcomes = Forward.run prepared state ~sends:[] ~until:50.0 in
  Alcotest.(check int) "single branch" 1 (List.length outcomes)

let closed_gate_drops_in_model () =
  let topology =
    net
      (Topology.series
         [ Topology.squarewave ~interval:10.0 (); Topology.throughput ~rate_bps:12_000.0 ])
  in
  let prepared, compiled = prepare topology in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let sends = [ pkt ~seq:0 ~at:5.0 (); pkt ~seq:1 ~at:15.0 (); pkt ~seq:2 ~at:25.0 () ] in
  let outcome = single (Forward.run prepared state ~sends ~until:40.0) in
  let seqs = List.map (fun (d : Forward.delivery) -> d.packet.Packet.seq) outcome.deliveries in
  Alcotest.(check (list int)) "middle send gated off" [ 0; 2 ] seqs

let until_prio_cuts_window () =
  (* A pinger emission scheduled exactly at the cut time with priority 2
     must stay pending when until_prio is the endpoint wakeup class. *)
  let topology =
    {
      Topology.sources = [ Topology.pinger ~flow:Flow.Cross ~rate_pps:0.5 () ];
      shared = Topology.series [];
    }
  in
  let prepared, compiled = prepare topology in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let o1 =
    single
      (Forward.run ~until_prio:Evprio.endpoint_wakeup prepared state ~sends:[] ~until:2.0)
  in
  (* Emissions at 0 and 2; the one at exactly t=2 (prio 2 < 10) IS
     processed; at until_prio = 1 it would not be. *)
  Alcotest.(check int) "emissions incl. boundary" 2 (List.length o1.Forward.deliveries);
  let o2 =
    single (Forward.run ~until_prio:1 prepared state ~sends:[] ~until:2.0)
  in
  Alcotest.(check int) "boundary emission deferred" 1 (List.length o2.Forward.deliveries);
  (* The deferred event must still be pending and fire in the next window. *)
  let o3 = single (Forward.run prepared o2.Forward.state ~sends:[] ~until:2.0) in
  Alcotest.(check int) "fires next window" 1 (List.length o3.Forward.deliveries)

let sends_validation () =
  let prepared, compiled = prepare (station 12_000.0 96_000) in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let advanced = single (Forward.run prepared state ~sends:[] ~until:5.0) in
  Alcotest.check_raises "past send rejected"
    (Invalid_argument "Forward.run: send before state time") (fun () ->
      ignore (Forward.run prepared advanced.Forward.state ~sends:[ pkt ~seq:0 ~at:1.0 () ] ~until:10.0));
  Alcotest.check_raises "future send rejected"
    (Invalid_argument "Forward.run: send after until") (fun () ->
      ignore (Forward.run prepared state ~sends:[ pkt ~seq:0 ~at:6.0 () ] ~until:5.0))

let canonical_compaction_after_convergence () =
  (* Two histories: a packet lost at a fork vs delivered — after both
     branches drain, states of the 'delivered' branch equal a fresh state
     advanced to the same time. *)
  let config = { Forward.default_config with loss_mode = `Fork } in
  let topology = net (Topology.series [ Topology.throughput ~rate_bps:12_000.0; Topology.loss ~rate:0.5 ]) in
  let prepared, compiled = prepare ~config topology in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let outcomes = Forward.run prepared state ~sends:[ pkt ~seq:0 ~at:0.0 () ] ~until:10.0 in
  match outcomes with
  | [ a; b ] ->
    Alcotest.(check string) "branches reconverge" (Mstate.canonical a.Forward.state)
      (Mstate.canonical b.Forward.state)
  | _ -> Alcotest.fail "expected two branches"

let canonical_distinguishes_live_state () =
  let prepared, compiled = prepare (station 12_000.0 96_000) in
  ignore prepared;
  let state = Mstate.initial ~epoch:1.0 compiled in
  let prefilled =
    Mstate.initial
      ~prefill:[ (0, [ Packet.make ~flow:Flow.Cross ~seq:(-1) ~sent_at:0.0 () ]) ]
      ~epoch:1.0 compiled
  in
  Alcotest.(check bool) "different canonical" false
    (Mstate.canonical state = Mstate.canonical prefilled)

let branch_cap_enforced () =
  (* Ten jitter elements in series fork 2^10 ways; cap at 64. *)
  let config = { Forward.default_config with max_branches = 64 } in
  let topology =
    net (Topology.series (List.init 10 (fun _ -> Topology.jitter ~seconds:0.001 ~probability:0.5)))
  in
  let prepared, compiled = prepare ~config topology in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let outcomes = Forward.run prepared state ~sends:[ pkt ~seq:0 ~at:0.0 () ] ~until:1.0 in
  Alcotest.(check bool) "bounded" true (List.length outcomes <= 128)

let mstate_pp_smoke () =
  let _, compiled = prepare (station 12_000.0 96_000) in
  let state = Mstate.initial ~epoch:1.0 compiled in
  Alcotest.(check bool) "prints" true (String.length (Format.asprintf "%a" Mstate.pp state) > 0)

let suite =
  [
    ("deterministic station timings", `Quick, deterministic_station_timings);
    ("incremental equals oneshot", `Quick, incremental_equals_oneshot);
    ("tail drop in model", `Quick, tail_drop_in_model);
    ("prefill semantics", `Quick, prefill_occupies_service_and_queue);
    ("likelihood loss scales survival", `Quick, likelihood_loss_scales_survival);
    ("fork loss partitions weight", `Quick, fork_loss_partitions_weight);
    ("loss before queue always forks", `Quick, loss_before_queue_always_forks);
    ("jitter forks", `Quick, jitter_forks);
    ("gate epoch fork probability", `Quick, gate_epoch_fork_probability);
    ("frozen gates do not fork", `Quick, frozen_gates_do_not_fork);
    ("closed gate drops", `Quick, closed_gate_drops_in_model);
    ("until_prio cuts window", `Quick, until_prio_cuts_window);
    ("sends validation", `Quick, sends_validation);
    ("canonical compaction", `Quick, canonical_compaction_after_convergence);
    ("canonical distinguishes state", `Quick, canonical_distinguishes_live_state);
    ("branch cap", `Quick, branch_cap_enforced);
    ("mstate pp", `Quick, mstate_pp_smoke);
  ]

(* --- multipath model state across windows --- *)

let multipath_round_robin_state_persists () =
  let topology =
    net
      (Topology.multipath
         ~first:(Topology.delay ~seconds:0.1)
         ~second:(Topology.delay ~seconds:0.5)
         ())
  in
  let prepared, compiled = prepare topology in
  let state = Mstate.initial ~epoch:1.0 compiled in
  (* First window: one packet takes the first path. *)
  let o1 = single (Forward.run prepared state ~sends:[ pkt ~seq:0 ~at:0.0 () ] ~until:1.0) in
  Alcotest.(check bool) "first path" true
    (List.map (fun (d : Forward.delivery) -> d.Forward.time) o1.Forward.deliveries = [ 0.1 ]);
  (* Second window: the alternation state survived, so path two. *)
  let o2 =
    single (Forward.run prepared o1.Forward.state ~sends:[ pkt ~seq:1 ~at:2.0 () ] ~until:3.0)
  in
  Alcotest.(check bool) "second path" true
    (List.map (fun (d : Forward.delivery) -> d.Forward.time) o2.Forward.deliveries = [ 2.5 ])

let station_bits_accounting () =
  let prepared, compiled = prepare (station 12_000.0 96_000) in
  ignore prepared;
  let state = Mstate.initial ~epoch:1.0 compiled in
  Alcotest.(check int) "empty" 0 (Mstate.station_bits state 0);
  Alcotest.check_raises "not a gate"
    (Invalid_argument "Mstate.gate_connected: node is not a gate") (fun () ->
      ignore (Mstate.gate_connected state 0))

let model_extra_suite =
  [
    ("multipath rr state persists", `Quick, multipath_round_robin_state_persists);
    ("station bits accounting", `Quick, station_bits_accounting);
  ]

let suite = suite @ model_extra_suite

(* --- Forward.expected: the planner's merged-state expectation --- *)

module Utility = Utc_utility.Utility
module Metrics = Utc_obs.Metrics

(* The expectation [Forward.expected] must reproduce: every outcome of
   [run], summed from zero in [run]'s order. *)
let expectation_of_run prepared state ~sends ~until ~value =
  List.fold_left
    (fun acc (o : Forward.outcome) -> acc +. (exp o.logw *. value o.deliveries))
    0.0
    (Forward.run prepared state ~sends ~until)

(* Shapes for the generated models: [forking] elements each fork once per
   packet crossing them; the others never fork. *)
let forking_element =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun seconds probability -> Topology.jitter ~seconds ~probability)
          (float_range 0.05 0.6) (float_range 0.05 0.95);
        (* A loss in front of the shared queue forks whatever the mode. *)
        map (fun rate -> Topology.loss ~rate) (float_range 0.05 0.6);
        map3
          (fun prob a b ->
            Topology.multipath ~policy:(`Random prob)
              ~first:(Topology.delay ~seconds:a) ~second:(Topology.delay ~seconds:b) ())
          (float_range 0.05 0.95) (float_range 0.0 0.4) (float_range 0.0 0.4);
      ])

let steady_element =
  QCheck.Gen.(
    oneof
      [
        map (fun seconds -> Topology.delay ~seconds) (float_range 0.0 0.4);
        map2
          (fun a b ->
            Topology.multipath ~first:(Topology.delay ~seconds:a) ~second:(Topology.delay ~seconds:b) ())
          (float_range 0.0 0.4) (float_range 0.0 0.4);
        return (Topology.jitter ~seconds:0.3 ~probability:0.0);
      ])

(* Up to two elements placed around a shared station, then a last-mile
   loss (likelihood-weighted, so it never forks) — primary and cross
   senders. A forking element after the station forks with deliveries
   already made by the child that goes straight through. *)
let model_gen element =
  QCheck.Gen.(
    map3
      (fun (elements, split) (rate_bps, slots) tail_loss ->
        let pre = List.filteri (fun i _ -> i < split) elements in
        let post = List.filteri (fun i _ -> i >= split) elements in
        {
          Topology.sources = [ Topology.endpoint Flow.Primary; Topology.endpoint Flow.Cross ];
          shared =
            Topology.series
              (pre
              @ [
                  Topology.buffer ~capacity_bits:(slots * Packet.default_bits);
                  Topology.throughput ~rate_bps;
                ]
              @ post
              @ [ Topology.loss ~rate:tail_loss ]);
        })
      (pair (list_size (int_range 0 2) element) (int_range 0 2))
      (pair (float_range 12_000.0 48_000.0) (int_range 1 3))
      (float_range 0.0 0.3))

let sends_gen =
  QCheck.Gen.(
    map
      (fun picks ->
        let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) picks in
        List.mapi
          (fun seq (at, cross) -> pkt ~flow:(if cross then Flow.Cross else Flow.Primary) ~seq ~at ())
          sorted)
      (list_size (int_range 1 4) (pair (float_range 0.0 1.0) bool)))

let utility_gen =
  QCheck.Gen.(
    map3
      (fun alpha kappa latency_penalty -> Utility.make ~alpha ~kappa ~latency_penalty ())
      (float_range 0.0 3.0) (float_range 1.0 60.0) (oneofl [ 0.0; 0.1 ]))

let case_gen element = QCheck.Gen.(triple (model_gen element) sends_gen utility_gen)

let print_case (topology, sends, _) =
  Printf.sprintf "%d sends over %d nodes" (List.length sends)
    (Compiled.node_count (Compiled.compile_exn topology))

(* Horizon 4 s: at most two forking elements x four packets is 256
   leaves, far below the 1024-branch cap, so [run] enumerates exactly. *)
let rollout (topology, sends, utility) =
  let prepared, compiled = prepare topology in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let value = Utility.of_deliveries utility ~now:0.0 in
  let outcomes = Forward.run prepared state ~sends ~until:4.0 in
  ( List.length outcomes,
    expectation_of_run prepared state ~sends ~until:4.0 ~value,
    Forward.expected prepared state ~sends ~until:4.0 ~value )

let expected_matches_run_prop =
  QCheck.Test.make ~name:"expected equals run expectation" ~count:150
    (QCheck.make ~print:print_case (case_gen forking_element))
    (fun case ->
      let leaves, of_run, expected = rollout case in
      leaves < Forward.default_config.max_branches
      && Float.abs (expected -. of_run) <= 1e-9 *. Float.max (Float.abs expected) (Float.abs of_run))

let expected_bit_exact_prop =
  QCheck.Test.make ~name:"expected is bit-exact without forks" ~count:150
    (QCheck.make ~print:print_case (case_gen steady_element))
    (fun case ->
      let leaves, of_run, expected = rollout case in
      leaves = 1 && Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float of_run))

(* Deltas of the cost-cause counters over [f], with the registry on. *)
let forward_costs f =
  let read () =
    List.map
      (fun name -> Metrics.count (Metrics.counter ("model.forward." ^ name)))
      [ "forks"; "merged"; "cap_drops" ]
  in
  Metrics.enable ();
  Fun.protect ~finally:Metrics.disable (fun () ->
      let before = read () in
      let result = f () in
      match List.map2 ( - ) (read ()) before with
      | [ forks; merged; cap_drops ] -> (result, forks, merged, cap_drops)
      | _ -> assert false)

(* The bursty-cross shape: a pinger whose packets jitter on their way
   into the shared queue. *)
let pinger_jitter_model =
  {
    Topology.sources =
      [
        Topology.endpoint Flow.Primary;
        Topology.pinger ~flow:Flow.Cross ~rate_pps:1.0
          ~access:(Topology.jitter ~seconds:0.3 ~probability:0.4) ();
      ];
    shared =
      Topology.series [ Topology.buffer ~capacity_bits:96_000; Topology.throughput ~rate_bps:24_000.0 ];
  }

let expected_counts_forks_and_merges () =
  let prepared, compiled = prepare pinger_jitter_model in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let value = Utility.of_deliveries Utility.default ~now:0.0 in
  let sends = [ pkt ~seq:0 ~at:0.2 (); pkt ~seq:1 ~at:2.2 () ] in
  let _, forks, merged, cap_drops =
    forward_costs (fun () -> Forward.expected prepared state ~sends ~until:8.0 ~value)
  in
  Alcotest.(check bool) (Printf.sprintf "forks (%d)" forks) true (forks > 0);
  Alcotest.(check bool) (Printf.sprintf "merged (%d)" merged) true (merged > 0);
  Alcotest.(check int) "no cap drops" 0 cap_drops;
  (* The paper's figure 2 hypothesis, priced the planner's way (gates
     frozen), never forks. *)
  let prepared, state =
    Utc_inference.Priors.fig2_hypothesis ~config:Forward.default_config
      Utc_inference.Priors.paper_truth
  in
  let _, forks, _, _ =
    forward_costs (fun () ->
        Forward.expected (Forward.plan_variant prepared) state ~sends ~until:47.0 ~value)
  in
  Alcotest.(check int) "fig3 hypothesis never forks" 0 forks

let expected_budget_drops () =
  let config = { Forward.default_config with max_branches = 4 } in
  let prepared, compiled = prepare ~config pinger_jitter_model in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let value = Utility.of_deliveries Utility.default ~now:0.0 in
  let sends = [ pkt ~seq:0 ~at:0.2 (); pkt ~seq:1 ~at:2.2 () ] in
  let price () = Forward.expected prepared state ~sends ~until:8.0 ~value in
  let first, _, _, cap_drops = forward_costs price in
  let second, _, _, _ = forward_costs price in
  Alcotest.(check bool) (Printf.sprintf "cap drops (%d)" cap_drops) true (cap_drops > 0);
  Alcotest.(check bool) "deterministic" true
    (Int64.equal (Int64.bits_of_float first) (Int64.bits_of_float second));
  (* With the budget the expectation is a lower bound on the uncapped
     one: dropped continuations contribute nothing. *)
  let uncapped, _ = prepare pinger_jitter_model in
  Alcotest.(check bool) "below uncapped" true
    (first < Forward.expected uncapped state ~sends ~until:8.0 ~value)

let expected_suite =
  [
    QCheck_alcotest.to_alcotest expected_matches_run_prop;
    QCheck_alcotest.to_alcotest expected_bit_exact_prop;
    ("expected counts forks and merges", `Quick, expected_counts_forks_and_merges);
    ("expected budget drops", `Quick, expected_budget_drops);
  ]

let suite = suite @ expected_suite
