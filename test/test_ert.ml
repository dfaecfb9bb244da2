(* Tests for Elmore Routing Tree construction. *)

open Geom

let tech = Circuit.Technology.table1

let random_net seed pins =
  let g = Rng.create seed in
  Netgen.uniform g ~region:(Rect.square 10_000.0) ~pins

let test_ert_two_pins () =
  let net = Net.of_list [ Point.origin; Point.make 500.0 0.0 ] in
  let t = Ert.construct ~tech net in
  Alcotest.(check bool) "tree" true (Routing.is_tree t);
  Alcotest.(check (float 1e-9)) "single wire" 500.0 (Routing.cost t)

let test_ert_star_is_mst () =
  (* Sinks in different quadrants around a central source: both MST and
     ERT must be the star. *)
  let net =
    Net.of_list
      [ Point.origin; Point.make 1000.0 0.0; Point.make (-1000.0) 10.0;
        Point.make 5.0 1000.0; Point.make (-3.0) (-1000.0) ]
  in
  let t = Ert.construct ~tech net in
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "edge 0-%d" v)
        true
        (Graphs.Wgraph.mem_edge (Routing.graph t) 0 v))
    (Routing.sinks t)

let prop_ert_is_spanning_tree =
  QCheck.Test.make ~name:"ERT is a spanning tree over the net" ~count:40
    QCheck.(pair small_int (int_range 2 25))
    (fun (seed, pins) ->
      let net = random_net seed pins in
      let t = Ert.construct ~tech net in
      Routing.is_tree t && Routing.num_vertices t = pins)

let test_ert_beats_mst_elmore_on_average () =
  (* Boese et al.: ERT delay is well below MST delay on random nets,
     with the gap growing with size (Table 6: 0.94 at 5 pins down to
     0.71 at 30). Check the mean Elmore ratio over a batch. *)
  let trials = 15 in
  let sum = ref 0.0 in
  for seed = 1 to trials do
    let net = random_net (seed * 7) 15 in
    let mst = Routing.mst_of_net net in
    let ert = Ert.construct ~tech net in
    sum :=
      !sum
      +. (Delay.Elmore.max_delay ~tech ert /. Delay.Elmore.max_delay ~tech mst)
  done;
  let avg = !sum /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "avg ERT/MST elmore = %.3f" avg)
    true (avg < 0.95)

let test_ert_cost_above_mst () =
  (* ERT trades wire for delay: its cost is >= MST cost by definition
     of the MST, typically by ~20-30 %. *)
  let net = random_net 3 20 in
  let mst = Routing.mst_of_net net in
  let ert = Ert.construct ~tech net in
  Alcotest.(check bool) "cost >= MST" true
    (Routing.cost ert >= Routing.cost mst -. 1e-6);
  Alcotest.(check bool) "cost < 2x MST" true
    (Routing.cost ert < 2.0 *. Routing.cost mst)

let test_weighted_validation () =
  let net = random_net 5 6 in
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Ert.construct_weighted: need one weight per sink")
    (fun () -> ignore (Ert.construct_weighted ~tech ~alphas:[| 1.0 |] net));
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Ert.construct_weighted: negative criticality")
    (fun () ->
      ignore
        (Ert.construct_weighted ~tech
           ~alphas:[| 1.0; 1.0; -1.0; 1.0; 1.0 |]
           net))

let test_weighted_uniform_close_to_max () =
  (* With uniform weights the weighted ERT optimises average delay;
     it must still be a sane spanning tree with bounded cost. *)
  let net = random_net 9 12 in
  let alphas = Array.make (Net.num_sinks net) 1.0 in
  let t = Ert.construct_weighted ~tech ~alphas net in
  Alcotest.(check bool) "tree" true (Routing.is_tree t);
  let mst_cost = Routing.cost (Routing.mst_of_net net) in
  Alcotest.(check bool) "cost sane" true (Routing.cost t < 2.0 *. mst_cost)

let test_weighted_critical_sink_favoured () =
  (* A one-hot criticality should give that sink a delay no worse than
     it gets from the max-objective ERT, averaged over nets. *)
  let trials = 10 in
  let improved = ref 0 in
  for seed = 1 to trials do
    let net = random_net (seed * 13) 10 in
    let critical = 1 + (seed mod Net.num_sinks net) in
    let alphas = Array.make (Net.num_sinks net) 0.0 in
    alphas.(critical - 1) <- 1.0;
    let weighted = Ert.construct_weighted ~tech ~alphas net in
    let plain = Ert.construct ~tech net in
    let delay_of r v =
      List.assoc v (Delay.Model.sink_delays Delay.Model.First_moment ~tech r)
    in
    if delay_of weighted critical <= delay_of plain critical +. 1e-15 then
      incr improved
  done;
  Alcotest.(check bool)
    (Printf.sprintf "critical sink at least as fast in %d/%d nets" !improved trials)
    true
    (!improved >= 7)

let test_sert_c_direct_edge () =
  let net = random_net 21 10 in
  let critical = 4 in
  let t = Ert.construct_critical ~tech ~critical net in
  Alcotest.(check bool) "tree" true (Routing.is_tree t);
  Alcotest.(check bool) "critical wired to source" true
    (Graphs.Wgraph.mem_edge (Routing.graph t) 0 critical)

let test_sert_c_critical_fast () =
  (* The critical sink's delay under SERT-C should beat its delay under
     the plain max-objective ERT in most nets (it gets a direct wire
     plus attachments chosen in its favour). *)
  let trials = 10 in
  let wins = ref 0 in
  for seed = 1 to trials do
    let net = random_net (seed * 41) 12 in
    let critical = 1 + (seed mod Net.num_sinks net) in
    let sert = Ert.construct_critical ~tech ~critical net in
    let plain = Ert.construct ~tech net in
    let d r =
      List.assoc critical
        (Delay.Model.sink_delays Delay.Model.First_moment ~tech r)
    in
    if d sert <= d plain +. 1e-15 then incr wins
  done;
  Alcotest.(check bool)
    (Printf.sprintf "critical faster in %d/%d" !wins trials)
    true
    (!wins >= 7)

let test_sert_c_validation () =
  let net = random_net 22 6 in
  Alcotest.check_raises "bad index"
    (Invalid_argument "Ert.construct_critical: not a sink index") (fun () ->
      ignore (Ert.construct_critical ~tech ~critical:0 net))

let suites =
  [ ( "ert",
      [ Alcotest.test_case "two pins" `Quick test_ert_two_pins;
        Alcotest.test_case "star net" `Quick test_ert_star_is_mst;
        QCheck_alcotest.to_alcotest prop_ert_is_spanning_tree;
        Alcotest.test_case "beats MST elmore on average" `Quick
          test_ert_beats_mst_elmore_on_average;
        Alcotest.test_case "cost above MST" `Quick test_ert_cost_above_mst;
        Alcotest.test_case "weighted validation" `Quick test_weighted_validation;
        Alcotest.test_case "weighted uniform" `Quick
          test_weighted_uniform_close_to_max;
        Alcotest.test_case "weighted favours critical sink" `Quick
          test_weighted_critical_sink_favoured;
        Alcotest.test_case "sert-c direct edge" `Quick test_sert_c_direct_edge;
        Alcotest.test_case "sert-c critical fast" `Quick
          test_sert_c_critical_fast;
        Alcotest.test_case "sert-c validation" `Quick test_sert_c_validation
      ] ) ]
