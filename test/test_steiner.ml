(* Tests for the Hanan grid and Iterated 1-Steiner. *)

open Geom

let test_hanan_generic () =
  let pins =
    [| Point.make 0.0 0.0; Point.make 10.0 20.0; Point.make 30.0 5.0 |]
  in
  (* 3 distinct xs x 3 distinct ys = 9 grid points, minus the 3 pins. *)
  Alcotest.(check int) "count" 6 (List.length (Steiner.Hanan.points pins));
  Alcotest.(check (pair int int)) "grid size" (3, 3)
    (Steiner.Hanan.grid_size pins)

let test_hanan_collinear () =
  let pins = [| Point.make 0.0 0.0; Point.make 5.0 0.0; Point.make 9.0 0.0 |] in
  (* One y value: the grid is the pins themselves. *)
  Alcotest.(check int) "no candidates" 0 (List.length (Steiner.Hanan.points pins))

let test_hanan_excludes_pins () =
  let pins = [| Point.make 0.0 0.0; Point.make 1.0 1.0 |] in
  let cands = Steiner.Hanan.points pins in
  Alcotest.(check int) "two corners" 2 (List.length cands);
  List.iter
    (fun c ->
      Alcotest.(check bool) "not a pin" false
        (Array.exists (Point.equal c) pins))
    cands

let plus_net () =
  (* Four arms of a plus: the optimal Steiner point is the centre. *)
  Net.of_list
    [ Point.make 50.0 0.0; Point.make 50.0 100.0; Point.make 0.0 50.0;
      Point.make 100.0 50.0 ]

let test_i1s_plus () =
  let net = plus_net () in
  let mst = Routing.mst_of_net net in
  Alcotest.(check (float 1e-9)) "mst cost" 300.0 (Routing.cost mst);
  let st = Steiner.Iterated_1steiner.construct net in
  Alcotest.(check (float 1e-9)) "steiner cost" 200.0 (Routing.cost st);
  Alcotest.(check int) "one steiner point" 5 (Routing.num_vertices st);
  Alcotest.(check int) "terminals preserved" 4 (Routing.num_terminals st);
  Alcotest.(check bool) "is a tree" true (Routing.is_tree st);
  (* The added point must be the centre. *)
  Alcotest.(check bool) "centre found" true
    (Point.close (Routing.point st 4) (Point.make 50.0 50.0))

let test_i1s_two_pins () =
  let net = Net.of_list [ Point.origin; Point.make 30.0 40.0 ] in
  let st = Steiner.Iterated_1steiner.construct net in
  (* No Steiner point can beat a single direct wire. *)
  Alcotest.(check int) "no steiner points" 2 (Routing.num_vertices st);
  Alcotest.(check (float 1e-9)) "cost" 70.0 (Routing.cost st)

let prop_i1s_cost_at_most_mst =
  QCheck.Test.make ~name:"I1S cost <= MST cost" ~count:25
    QCheck.(pair small_int (int_range 3 12))
    (fun (seed, pins) ->
      let g = Rng.create seed in
      let net = Netgen.uniform g ~region:(Rect.square 10_000.0) ~pins in
      let mst_cost = Routing.cost (Routing.mst_of_net net) in
      let st = Steiner.Iterated_1steiner.construct net in
      Routing.cost st <= mst_cost +. 1e-6)

let prop_i1s_structure =
  QCheck.Test.make ~name:"I1S: tree, terminals intact, steiner degree >= 3"
    ~count:25
    QCheck.(pair small_int (int_range 3 12))
    (fun (seed, pins) ->
      let g = Rng.create (seed + 1000) in
      let net = Netgen.uniform g ~region:(Rect.square 10_000.0) ~pins in
      let st = Steiner.Iterated_1steiner.construct net in
      Routing.is_tree st
      && Routing.num_terminals st = pins
      && List.for_all
           (fun v -> Graphs.Wgraph.degree (Routing.graph st) v >= 3)
           (List.init
              (Routing.num_vertices st - Routing.num_terminals st)
              (fun i -> Routing.num_terminals st + i)))

(* The classic worst case: I1S achieves 2/3 of the MST on a plus, and in
   general is never worse than the MST; the reduction ratio over random
   nets should average a few percent (Kahng-Robins report ~11 %). *)
let test_i1s_average_improvement () =
  let total_ratio = ref 0.0 in
  let trials = 12 in
  for seed = 1 to trials do
    let g = Rng.create (seed * 31) in
    let net = Netgen.uniform g ~region:(Rect.square 10_000.0) ~pins:9 in
    let mst = Routing.cost (Routing.mst_of_net net) in
    let st = Routing.cost (Steiner.Iterated_1steiner.construct net) in
    total_ratio := !total_ratio +. (st /. mst)
  done;
  let avg = !total_ratio /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "avg ratio %.3f in (0.80, 1.0)" avg)
    true
    (avg > 0.80 && avg < 1.0)

let test_i1s_leaf_steiner_regression () =
  (* Regression: this net stream once made cleanup loop forever on a
     Steiner point that became a degree-0 vertex after a leaf drop. *)
  let nets =
    Netgen.uniform_batch
      ~seed:(1994 + (1_000_003 * 10))
      ~region:(Rect.square 10_000.0) ~pins:10 ~trials:2
  in
  let st = Steiner.Iterated_1steiner.construct nets.(1) in
  Alcotest.(check bool) "terminates and is a tree" true (Routing.is_tree st)

let suites =
  [ ( "steiner",
      [ Alcotest.test_case "hanan generic" `Quick test_hanan_generic;
        Alcotest.test_case "hanan collinear" `Quick test_hanan_collinear;
        Alcotest.test_case "hanan excludes pins" `Quick test_hanan_excludes_pins;
        Alcotest.test_case "i1s plus net" `Quick test_i1s_plus;
        Alcotest.test_case "i1s two pins" `Quick test_i1s_two_pins;
        QCheck_alcotest.to_alcotest prop_i1s_cost_at_most_mst;
        QCheck_alcotest.to_alcotest prop_i1s_structure;
        Alcotest.test_case "i1s average improvement" `Quick
          test_i1s_average_improvement;
        Alcotest.test_case "i1s leaf-steiner regression" `Quick
          test_i1s_leaf_steiner_regression ] ) ]
