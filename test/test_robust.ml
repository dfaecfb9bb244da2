(* Tests for the fault-tolerant delay-oracle stack: typed errors, the
   retry-with-refinement schedule, graceful SPICE -> first moment ->
   Elmore degradation, and fault injection. *)

open Geom

let tech = Circuit.Technology.table1

let two_pin_net length =
  Net.of_list [ Point.origin; Point.make length 0.0 ]

let random_routing seed pins =
  let g = Rng.create seed in
  Routing.mst_of_net (Netgen.uniform g ~region:(Rect.square 10_000.0) ~pins)

let fast = Delay.Model.Spice Delay.Model.fast_spice

let counters () = Nontree_error.Counters.snapshot ()

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* Every test must leave injection off for whoever runs next. *)
let with_clean_faults f =
  Fault.disable ();
  Nontree_error.Counters.reset ();
  Fun.protect ~finally:Fault.disable f

(* Refinement schedule ------------------------------------------------- *)

let test_refine_schedule () =
  let base =
    { Delay.Model.options = Spice.Engine.fast_options;
      segmentation = Delay.Lumping.Fixed 2;
      include_inductance = false }
  in
  let steps c = c.Delay.Model.options.Spice.Engine.steps_per_chunk in
  Alcotest.(check bool)
    "attempt 1 is the unmodified config" true
    (Delay.Robust.refine_spice base ~attempt:1 = base);
  let a2 = Delay.Robust.refine_spice base ~attempt:2 in
  Alcotest.(check int) "attempt 2 doubles steps" (2 * steps base) (steps a2);
  Alcotest.(check bool) "attempt 2 adds 2 segments" true
    (a2.Delay.Model.segmentation = Delay.Lumping.Fixed 4);
  let a3 = Delay.Robust.refine_spice base ~attempt:3 in
  Alcotest.(check int) "attempt 3 quadruples steps" (4 * steps base) (steps a3);
  Alcotest.(check bool) "attempt 3 adds 4 segments" true
    (a3.Delay.Model.segmentation = Delay.Lumping.Fixed 6);
  let per =
    { base with
      Delay.Model.segmentation =
        Delay.Lumping.Per_length { unit_length = 1000.0; max_segments = 6 } }
  in
  let p3 = Delay.Robust.refine_spice per ~attempt:3 in
  Alcotest.(check bool) "per-length refinement quarters the unit" true
    (p3.Delay.Model.segmentation
    = Delay.Lumping.Per_length { unit_length = 250.0; max_segments = 10 })

let test_fallback_chain () =
  let tree = random_routing 3 8 in
  let u, v = List.hd (Routing.candidate_edges tree) in
  let graph = Routing.add_edge tree u v in
  Alcotest.(check bool) "spice on a tree" true
    (Delay.Robust.fallback_chain fast tree
    = [ Delay.Model.First_moment; Delay.Model.Elmore_tree ]);
  Alcotest.(check bool) "spice on a graph skips elmore" true
    (Delay.Robust.fallback_chain fast graph = [ Delay.Model.First_moment ]);
  Alcotest.(check bool) "first moment on a tree" true
    (Delay.Robust.fallback_chain Delay.Model.First_moment tree
    = [ Delay.Model.Elmore_tree ]);
  Alcotest.(check bool) "elmore has nowhere to go" true
    (Delay.Robust.fallback_chain Delay.Model.Elmore_tree tree = [])

(* Degradation order, scripted ----------------------------------------- *)

let test_scripted_degradation_order () =
  with_clean_faults (fun () ->
      let r = random_routing 5 8 in
      (* SPICE fails three times (all attempts), the first-moment
         fallback fails once, Elmore absorbs the evaluation. *)
      Fault.script
        [ Some Fault.Nan_value;
          Some Fault.Nan_value;
          Some Fault.Nan_value;
          Some Fault.Singular_stamp ];
      let delays = Delay.Robust.sink_delays_exn ~model:fast ~tech r in
      let s = counters () in
      Alcotest.(check int) "two refined retries" 2 s.retries;
      Alcotest.(check int) "one moment fallback" 1 s.moment_fallbacks;
      Alcotest.(check int) "one elmore fallback" 1 s.elmore_fallbacks;
      Alcotest.(check int) "four faults injected" 4 s.faults_injected;
      Alcotest.(check int) "all four survived" 4 s.faults_survived;
      Alcotest.(check int) "no oracle error" 0 s.oracle_errors;
      let elmore =
        Delay.Model.sink_delays Delay.Model.Elmore_tree ~tech r
      in
      Alcotest.(check bool) "result is the elmore evaluation" true
        (delays = elmore))

let test_bounded_retries () =
  with_clean_faults (fun () ->
      (* A non-tree routing's fallback chain is [First_moment] alone, so
         faults on every draw exhaust it: 3 SPICE attempts, then one
         first-moment evaluation. *)
      let tree = random_routing 7 6 in
      let u, v = List.hd (Routing.candidate_edges tree) in
      let r = Routing.add_edge tree u v in
      Fault.script (List.init 10 (fun _ -> Some Fault.Nan_value));
      (match Delay.Robust.sink_delays ~model:fast ~tech r with
      | Ok _ -> Alcotest.fail "expected failure once the chain is exhausted"
      | Error (Nontree_error.Non_finite _) -> ()
      | Error e -> Alcotest.fail ("unexpected error " ^ Nontree_error.to_string e));
      let s = counters () in
      Alcotest.(check int) "exactly 2 refined retries" 2 s.retries;
      Alcotest.(check int) "one moment fallback" 1 s.moment_fallbacks;
      Alcotest.(check int) "no elmore fallback" 0 s.elmore_fallbacks;
      Alcotest.(check int) "one draw per attempt and fallback" 4
        s.faults_injected;
      Alcotest.(check int) "nothing survived" 0 s.faults_survived;
      Alcotest.(check int) "counted as oracle error" 1 s.oracle_errors)

let test_invalid_net_never_retried () =
  with_clean_faults (fun () ->
      let tree = random_routing 9 6 in
      let u, v = List.hd (Routing.candidate_edges tree) in
      let graph = Routing.add_edge tree u v in
      (match
         Delay.Robust.sink_delays ~model:Delay.Model.Elmore_tree ~tech graph
       with
      | Error (Nontree_error.Invalid_net _) -> ()
      | Ok _ -> Alcotest.fail "elmore on a graph must fail"
      | Error e -> Alcotest.fail ("unexpected error " ^ Nontree_error.to_string e));
      let s = counters () in
      Alcotest.(check int) "no retries on Invalid_net" 0 s.retries;
      Alcotest.(check int) "no fallbacks on Invalid_net" 0
        (s.moment_fallbacks + s.elmore_fallbacks))

(* No faults => exactly the plain oracle -------------------------------- *)

let test_no_fault_identical_to_plain_oracle () =
  with_clean_faults (fun () ->
      let tree = random_routing 11 7 in
      let u, v = List.hd (Routing.candidate_edges tree) in
      let graph = Routing.add_edge tree u v in
      List.iter
        (fun r ->
          let robust = Delay.Robust.sink_delays_exn ~model:fast ~tech r in
          let plain = Delay.Model.sink_delays fast ~tech r in
          Alcotest.(check bool) "bit-identical delays" true (robust = plain))
        [ tree; graph ];
      let s = counters () in
      Alcotest.(check int) "no retries without faults" 0 s.retries;
      Alcotest.(check bool) "no events at all" false
        (Nontree_error.Counters.any ()))

(* A retry runs the refined oracle and nothing else: after one scripted
   fault, the robust delays are those of attempt 2's configuration, bit
   for bit, on a tree and on a graph. *)
let test_retry_is_refined_oracle () =
  let tree = random_routing 13 9 in
  let u, v = List.hd (Routing.candidate_edges tree) in
  let refined =
    Delay.Model.Spice
      (Delay.Robust.refine_spice Delay.Model.fast_spice ~attempt:2)
  in
  let bits = List.map (fun (v, d) -> (v, Int64.bits_of_float d)) in
  List.iter
    (fun r ->
      with_clean_faults (fun () ->
          Fault.script [ Some Fault.Singular_stamp ];
          let robust = Delay.Robust.sink_delays_exn ~model:fast ~tech r in
          Alcotest.(check int) "one retry" 1 (counters ()).retries;
          match Delay.Model.sink_delays_result refined ~tech r with
          | Ok ds ->
              Alcotest.(check bool) "attempt 2's delays" true
                (bits robust = bits ds)
          | Error e -> Alcotest.fail (Nontree_error.to_string e)))
    [ tree; Routing.add_edge tree u v ]

let test_single_sink_net () =
  with_clean_faults (fun () ->
      let r = Routing.mst_of_net (two_pin_net 1500.0) in
      match Delay.Robust.sink_delays ~model:fast ~tech r with
      | Ok [ (1, d) ] ->
          Alcotest.(check bool) "finite positive delay" true
            (Float.is_finite d && d > 0.0)
      | Ok _ -> Alcotest.fail "expected exactly one sink"
      | Error e -> Alcotest.fail (Nontree_error.to_string e))

(* Fault module -------------------------------------------------------- *)

let test_fault_schedule_deterministic () =
  with_clean_faults (fun () ->
      let draws n = List.init n (fun _ -> Fault.draw ~stage:"spice") in
      Fault.enable ~rate:0.5 ~seed:77;
      let a = draws 200 in
      Fault.enable ~rate:0.5 ~seed:77;
      let b = draws 200 in
      Fault.enable ~rate:0.5 ~seed:78;
      let c = draws 200 in
      Alcotest.(check bool) "same seed, same schedule" true (a = b);
      Alcotest.(check bool) "schedule actually fires" true
        (List.exists Option.is_some a);
      Alcotest.(check bool) "different seed, different schedule" true (a <> c))

let test_fault_rate_validated () =
  with_clean_faults (fun () ->
      List.iter
        (fun rate ->
          Alcotest.check_raises (Printf.sprintf "rate %g" rate)
            (Invalid_argument "Fault.enable: rate must be in [0, 1]")
            (fun () -> Fault.enable ~rate ~seed:1))
        [ -0.5; 1.5; infinity; nan ];
      Alcotest.(check bool) "still off" false (Fault.active ()))

let test_fault_off_draws_nothing () =
  with_clean_faults (fun () ->
      Alcotest.(check bool) "inactive" false (Fault.active ());
      Alcotest.(check bool) "no draws when off" true
        (List.init 50 (fun _ -> Fault.draw ~stage:"spice")
        |> List.for_all Option.is_none);
      Alcotest.(check int) "no faults counted" 0 (counters ()).faults_injected)

(* Degenerate inputs never crash --------------------------------------- *)

let arb_grid_points =
  let open QCheck in
  let point =
    Gen.map
      (fun (x, y) ->
        Point.make (float_of_int x *. 400.0) (float_of_int y *. 400.0))
      Gen.(pair (int_range 0 3) (int_range 0 3))
  in
  make
    ~print:(fun pts ->
      String.concat "; " (List.map Point.to_string pts))
    Gen.(list_size (int_range 1 8) point)

(* Duplicate and collinear pins abound on a 4x4 grid; construction must
   reject them with Invalid_argument and nothing else, and any net that
   does construct must evaluate to finite positive delays. *)
let prop_degenerate_nets_never_crash =
  QCheck.Test.make ~name:"degenerate nets: Ok or Invalid_net" ~count:120
    arb_grid_points (fun pts ->
      Fault.disable ();
      match Geom.Net.of_list pts with
      | exception Invalid_argument _ -> true
      | net -> (
          let r = Routing.mst_of_net net in
          match
            Delay.Robust.sink_delays ~model:Delay.Model.First_moment ~tech r
          with
          | Ok ds -> List.for_all (fun (_, d) -> Float.is_finite d && d > 0.0) ds
          | Error _ -> true))

(* A Steiner point coincident with a pin creates a zero-length edge and
   an infinite conductance stamp; the robust path must degrade to
   Elmore rather than crash or return garbage, under the first moment
   and under fast SPICE, whose system stamps a zero-ohm segment. *)
let prop_zero_length_edges_never_crash =
  QCheck.Test.make ~name:"zero-length edges: robust oracle survives"
    ~count:30
    QCheck.(pair small_int (int_range 3 10))
    (fun (seed, pins) ->
      Fault.disable ();
      let r = random_routing seed pins in
      let pts = Routing.points r in
      let n = Array.length pts in
      let dup = Array.append pts [| pts.(1) |] in
      let edges =
        (1, n)
        :: List.map
             (fun (e : Graphs.Wgraph.edge) -> (e.u, e.v))
             (Graphs.Wgraph.edges (Routing.graph r))
      in
      let r' =
        Routing.with_points ~source:0
          ~num_terminals:(Routing.num_terminals r) dup edges
      in
      List.for_all
        (fun model ->
          match Delay.Robust.sink_delays ~model ~tech r' with
          | Ok ds ->
              List.for_all (fun (_, d) -> Float.is_finite d && d > 0.0) ds
          | Error (Nontree_error.Invalid_net _) -> true
          | Error _ -> true)
        [ Delay.Model.First_moment; Delay.Model.Spice Delay.Model.fast_spice ])

(* Whole-run fault injection ------------------------------------------- *)

let test_probabilistic_run_completes () =
  with_clean_faults (fun () ->
      Fault.enable ~rate:0.3 ~seed:2024;
      let config =
        { Nontree.Experiment.default with trials = 2; sizes = [ 5 ] }
      in
      let rows = Harness.Runs.table2 config in
      let s = counters () in
      Alcotest.(check bool) "table rows produced" true (rows <> []);
      Alcotest.(check bool) "faults actually fired" true (s.faults_injected > 0);
      Alcotest.(check bool) "summary line available" true
        (Harness.Runs.robustness_summary () <> None))

(* The extension reports measure through the robust oracle: in wsorg
   and csorg the first draw of the only net is the report's own
   measurement of its MST, and a fault there is retried, so the net
   stays in the report. *)
let test_ext_first_fault_keeps_net () =
  let config = { Nontree.Experiment.default with trials = 1 } in
  List.iter
    (fun name ->
      let a =
        List.find
          (fun a -> a.Harness.Runs.selector = Harness.Runs.Ext name)
          Harness.Runs.artefacts
      in
      with_clean_faults (fun () ->
          Nontree.Oracle.Cache.reset ();
          Fault.script [ Some Fault.Nan_value ];
          let out = a.Harness.Runs.render config ~svg_dir:"" in
          let s = counters () in
          Alcotest.(check int) (name ^ ": the fault fired") 1 s.faults_injected;
          Alcotest.(check int) (name ^ ": retried") 1 s.retries;
          Alcotest.(check int) (name ^ ": no net dropped") 0 s.dropped_nets;
          Alcotest.(check bool) (name ^ ": the net is reported") false
            (contains out "all nets dropped")))
    [ "wsorg"; "csorg" ]

(* Every mean of the pruning report is over the nets it kept. At
   8 nets and fault rate 0.95 under [tables.exe]'s default fault seed,
   3 nets drop and the 5 kept ones remove one edge between them, so the
   report prints 1/5 = 0.2 edges removed per net, not 1/8 = 0.1. *)
let test_ext_prune_mean_over_kept_nets () =
  let config = { Nontree.Experiment.default with trials = 8 } in
  let a =
    List.find
      (fun a -> a.Harness.Runs.selector = Harness.Runs.Ext "prune")
      Harness.Runs.artefacts
  in
  with_clean_faults (fun () ->
      Nontree.Oracle.Cache.reset ();
      Fault.enable ~rate:0.95
        ~seed:(config.Nontree.Experiment.seed + 0x5EED);
      let out = a.Harness.Runs.render config ~svg_dir:"" in
      Alcotest.(check int) "nets dropped" 3 (counters ()).dropped_nets;
      Alcotest.(check bool) "mean over the kept nets" true
        (contains out "(0.2 edges removed/net)"))

let test_protect_net () =
  with_clean_faults (fun () ->
      (match
         Harness.Runs.protect_net ~what:"unit" (fun () ->
             Nontree_error.raise_error (Nontree_error.Invalid_net "broken"))
       with
      | None -> ()
      | Some _ -> Alcotest.fail "expected the net to be dropped");
      Alcotest.(check int) "drop counted" 1 (counters ()).dropped_nets;
      match Harness.Runs.protect_net ~what:"unit" (fun () -> 42) with
      | Some 42 -> ()
      | _ -> Alcotest.fail "healthy nets pass through")

let test_counters_summary_mentions_events () =
  with_clean_faults (fun () ->
      Alcotest.(check bool) "fresh counters are quiet" false
        (Nontree_error.Counters.any ());
      Nontree_error.Counters.incr_retries ();
      Alcotest.(check bool) "any() sees the retry" true
        (Nontree_error.Counters.any ());
      let line = Nontree_error.Counters.summary () in
      Alcotest.(check bool) "summary mentions retries" true
        (contains line "1 retries"))

(* One fault draw per evaluation, plain or incremental ------------------ *)

(* Each evaluation draws exactly one fault: under the script [None;
   fault] the first evaluation comes through and the second takes the
   fault. A plain evaluation returns the injected error; an incremental
   candidate falls back once to its plain objective, which draws past
   the script's end. *)
let test_one_draw_per_evaluation () =
  let fallbacks = Obs.Counter.make "oracle.incremental_fallbacks" in
  let r = random_routing 11 7 in
  let edit =
    let u, v = List.hd (Routing.candidate_edges r) in
    { Delay.Model.u; v; width = 1.0; was = None;
      length = Geom.Point.manhattan (Routing.point r u) (Routing.point r v) }
  in
  let cache = Nontree.Oracle.Cache.enabled () in
  Nontree.Oracle.Cache.set_enabled false;
  Fun.protect ~finally:(fun () -> Nontree.Oracle.Cache.set_enabled cache)
  @@ fun () ->
  List.iter
    (fun (model, stage) ->
      let name = Delay.Model.name model in
      with_clean_faults (fun () ->
          Fault.script [ None; Some Fault.Nan_value ];
          let plain () = Delay.Model.sink_delays_result model ~tech r in
          Alcotest.(check bool) (name ^ ": the first comes through") true
            (Result.is_ok (plain ()));
          (match plain () with
          | Error (Nontree_error.Non_finite { stage = s; _ }) ->
              Alcotest.(check string) (name ^ ": the injected error") stage s
          | Ok _ -> Alcotest.failf "%s: the second drew no fault" name
          | Error e ->
              Alcotest.failf "%s: %s" name (Nontree_error.to_string e));
          Alcotest.(check int) (name ^ ": one fault") 1
            (counters ()).faults_injected);
      with_clean_faults (fun () ->
          let called = ref 0 in
          let fallback trial =
            incr called;
            Delay.Model.max_delay model ~tech trial
          in
          let score =
            Nontree.Incremental.make_scorer ~model ~tech ~fallback r
              ~cutoff:Float.infinity
          in
          Fault.script [ None; Some Fault.Nan_value ];
          let f0 = Obs.Counter.value fallbacks in
          let clean = score edit in
          Alcotest.(check int) (name ^ ": the first is scored") 0 !called;
          let faulted = score edit in
          Alcotest.(check int) (name ^ ": the second falls back once") 1
            !called;
          Alcotest.(check int) (name ^ ": one fallback counted") (f0 + 1)
            (Obs.Counter.value fallbacks);
          Alcotest.(check int) (name ^ ": one fault") 1
            (counters ()).faults_injected;
          Alcotest.(check (float 1e-9)) (name ^ ": the plain objective")
            1.0 (faulted /. clean)))
    [ (Delay.Model.First_moment, "moments.injected");
      (Delay.Model.Two_pole, "moments.injected");
      (fast, "spice.injected") ]

let suites =
  [ ( "robust",
      [ Alcotest.test_case "refinement schedule" `Quick test_refine_schedule;
        Alcotest.test_case "fallback chain" `Quick test_fallback_chain;
        Alcotest.test_case "scripted degradation order" `Quick
          test_scripted_degradation_order;
        Alcotest.test_case "bounded retries" `Quick test_bounded_retries;
        Alcotest.test_case "invalid net never retried" `Quick
          test_invalid_net_never_retried;
        Alcotest.test_case "no faults = plain oracle" `Quick
          test_no_fault_identical_to_plain_oracle;
        Alcotest.test_case "retry is the refined oracle" `Quick
          test_retry_is_refined_oracle;
        Alcotest.test_case "single-sink net" `Quick test_single_sink_net;
        Alcotest.test_case "fault schedule deterministic" `Quick
          test_fault_schedule_deterministic;
        Alcotest.test_case "fault rate outside [0, 1] rejected" `Quick
          test_fault_rate_validated;
        Alcotest.test_case "fault off draws nothing" `Quick
          test_fault_off_draws_nothing;
        Alcotest.test_case "one fault draw per evaluation" `Quick
          test_one_draw_per_evaluation;
        QCheck_alcotest.to_alcotest prop_degenerate_nets_never_crash;
        QCheck_alcotest.to_alcotest prop_zero_length_edges_never_crash;
        Alcotest.test_case "fault-injected table run completes" `Quick
          test_probabilistic_run_completes;
        Alcotest.test_case "a faulted first measurement keeps its net" `Quick
          test_ext_first_fault_keeps_net;
        Alcotest.test_case "prune report averages over kept nets" `Quick
          test_ext_prune_mean_over_kept_nets;
        Alcotest.test_case "protect_net" `Quick test_protect_net;
        Alcotest.test_case "counter summary" `Quick
          test_counters_summary_mentions_events ] ) ]
