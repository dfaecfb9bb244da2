(* Tests for the baseline tree constructions (PD, BRBC) and metrics. *)

open Geom

let random_net seed pins =
  let g = Rng.create seed in
  Netgen.uniform g ~region:(Rect.square 10_000.0) ~pins

(* Metrics -------------------------------------------------------------- *)

let path_net () =
  (* 0 -> 1 -> 2 in a straight line. *)
  Net.of_list [ Point.origin; Point.make 100.0 0.0; Point.make 300.0 0.0 ]

let test_metrics_path () =
  let r = Routing.mst_of_net (path_net ()) in
  Alcotest.(check (float 1e-9)) "radius" 300.0 (Trees.Metrics.radius r);
  Alcotest.(check (float 1e-9)) "avg path" 200.0
    (Trees.Metrics.average_sink_path r);
  Alcotest.(check (float 1e-9)) "no detour" 1.0 (Trees.Metrics.max_path_ratio r)

let test_metrics_detour () =
  (* Force a detour: connect sink 2 through sink 1 although it is
     close to the source. Pins: src (0,0), far (1000,0), near (990, 10):
     MST chains near to far. *)
  let net =
    Net.of_list
      [ Point.origin; Point.make 1000.0 0.0; Point.make 990.0 10.0 ]
  in
  let r = Routing.mst_of_net net in
  Alcotest.(check bool) "detour > 1" true (Trees.Metrics.max_path_ratio r > 1.0);
  let sum = Trees.Metrics.summary r in
  Alcotest.(check bool) "summary mentions radius" true
    (String.length sum > 0)

(* PD -------------------------------------------------------------------- *)

let test_pd_c0_is_mst () =
  let net = random_net 5 15 in
  let pd0 = Trees.Pd.construct ~c:0.0 net in
  let mst = Routing.mst_of_net net in
  Alcotest.(check (float 1e-6)) "same cost as MST" (Routing.cost mst)
    (Routing.cost pd0)

let test_pd_c1_is_spt () =
  (* With c = 1 every pin connects by a shortest path; in the geometric
     complete graph that is the star (up to ties). *)
  let net = random_net 6 12 in
  let pd1 = Trees.Pd.construct ~c:1.0 net in
  let dist = Trees.Metrics.source_path_lengths pd1 in
  let src = Net.source net in
  List.iter
    (fun v ->
      let direct = Point.manhattan src (Net.pin net v) in
      Alcotest.(check bool)
        (Printf.sprintf "sink %d direct" v)
        true
        (dist.(v) <= direct +. 1e-6))
    (Routing.sinks pd1)

let test_pd_rejects_bad_c () =
  let net = random_net 7 5 in
  Alcotest.check_raises "c too big"
    (Invalid_argument "Pd.construct: need 0 <= c <= 1") (fun () ->
      ignore (Trees.Pd.construct ~c:1.5 net))

(* Only the ends of the spectrum are bounds: c = 0 is the MST, which
   has minimum cost, and c = 1 the shortest-path tree, which has
   minimum radius. The middle need not lie between them: radius is not
   monotone in c (the (15, 17) regression below), and
   cost(c = 0.5) <= cost(c = 1) is no theorem either. So "shrinks" and
   "grows" are measured from the ends: no c gives less cost than c = 0
   or a shorter radius than c = 1. *)
let prop_pd_extremes_bound =
  QCheck.Test.make ~name:"PD: radius shrinks, cost grows with c" ~count:30
    QCheck.(pair small_int (int_range 4 20))
    (fun (seed, pins) ->
      let net = random_net seed pins in
      let r0 = Trees.Pd.construct ~c:0.0 net in
      let r5 = Trees.Pd.construct ~c:0.5 net in
      let r1 = Trees.Pd.construct ~c:1.0 net in
      Routing.cost r0 <= Routing.cost r5 +. 1e-6
      && Routing.cost r0 <= Routing.cost r1 +. 1e-6
      && Trees.Metrics.radius r1 <= Trees.Metrics.radius r5 +. 1e-6
      && Trees.Metrics.radius r1 <= Trees.Metrics.radius r0 +. 1e-6)

(* Seed 15, 17 pins: raising c from 0 to 0.5 lengthens the radius
   (14,351 to 14,763), so PD's radius is not monotone in c. *)
let test_pd_radius_not_monotone () =
  let net = random_net 15 17 in
  let radius c = Trees.Metrics.radius (Trees.Pd.construct ~c net) in
  let r0 = radius 0.0 and r5 = radius 0.5 in
  Alcotest.(check (float 0.5)) "radius at c = 0" 14_351.0 r0;
  Alcotest.(check (float 0.5)) "radius at c = 0.5" 14_763.0 r5;
  Alcotest.(check bool) "c = 0.5 has the longer radius" true (r5 > r0)

let prop_pd_is_spanning_tree =
  QCheck.Test.make ~name:"PD produces spanning trees" ~count:30
    QCheck.(triple small_int (int_range 2 20) (float_bound_inclusive 1.0))
    (fun (seed, pins, c) ->
      let net = random_net seed pins in
      let r = Trees.Pd.construct ~c net in
      Routing.is_tree r && Routing.num_vertices r = pins)

(* BRBC ------------------------------------------------------------------ *)

let test_brbc_epsilon_zero_is_star_radius () =
  let net = random_net 8 12 in
  let r = Trees.Brbc.construct ~epsilon:0.0 net in
  let dist = Trees.Metrics.source_path_lengths r in
  let src = Net.source net in
  List.iter
    (fun v ->
      Alcotest.(check bool) "direct distance" true
        (dist.(v) <= Point.manhattan src (Net.pin net v) +. 1e-6))
    (Routing.sinks r)

let test_brbc_large_epsilon_is_mst () =
  let net = random_net 9 12 in
  let r = Trees.Brbc.construct ~epsilon:1e9 net in
  let mst = Routing.mst_of_net net in
  Alcotest.(check (float 1e-6)) "mst cost" (Routing.cost mst) (Routing.cost r)

let test_brbc_rejects_negative () =
  let net = random_net 10 5 in
  Alcotest.check_raises "negative eps"
    (Invalid_argument "Brbc.construct: epsilon < 0") (fun () ->
      ignore (Trees.Brbc.construct ~epsilon:(-0.5) net))

let prop_brbc_radius_bound =
  QCheck.Test.make ~name:"BRBC: radius <= (1+eps) * direct radius" ~count:40
    QCheck.(
      triple small_int (int_range 2 25) (float_bound_inclusive 2.0))
    (fun (seed, pins, epsilon) ->
      let net = random_net seed pins in
      let r = Trees.Brbc.construct ~epsilon net in
      Routing.is_tree r
      && Trees.Metrics.radius r
         <= Trees.Brbc.radius_bound ~epsilon net +. 1e-6)

let prop_brbc_cost_interpolates =
  QCheck.Test.make ~name:"BRBC cost between MST and reasonable bound" ~count:30
    QCheck.(pair small_int (int_range 3 20))
    (fun (seed, pins) ->
      let net = random_net seed pins in
      let mst_cost = Routing.cost (Routing.mst_of_net net) in
      let r = Trees.Brbc.construct ~epsilon:0.5 net in
      (* Theory: cost <= (1 + 2/eps) * mst = 5x here. *)
      Routing.cost r >= mst_cost -. 1e-6
      && Routing.cost r <= (5.0 *. mst_cost) +. 1e-6)

(* Delay sanity: under Elmore, the tradeoff trees should usually sit
   between the MST and the star in delay on spread-out nets. *)
let test_pd_improves_elmore_on_average () =
  let tech = Circuit.Technology.table1 in
  let total = ref 0.0 in
  let trials = 12 in
  for seed = 1 to trials do
    let net = random_net (seed * 3) 15 in
    let mst_d = Delay.Elmore.max_delay ~tech (Routing.mst_of_net net) in
    let pd_d = Delay.Elmore.max_delay ~tech (Trees.Pd.construct ~c:0.5 net) in
    total := !total +. (pd_d /. mst_d)
  done;
  let avg = !total /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "avg PD/MST elmore %.3f < 1" avg)
    true (avg < 1.0)

let suites =
  [ ( "trees",
      [ Alcotest.test_case "metrics path" `Quick test_metrics_path;
        Alcotest.test_case "metrics detour" `Quick test_metrics_detour;
        Alcotest.test_case "pd c=0 is mst" `Quick test_pd_c0_is_mst;
        Alcotest.test_case "pd c=1 is spt" `Quick test_pd_c1_is_spt;
        Alcotest.test_case "pd rejects bad c" `Quick test_pd_rejects_bad_c;
        QCheck_alcotest.to_alcotest prop_pd_extremes_bound;
        Alcotest.test_case "pd radius not monotone in c" `Quick
          test_pd_radius_not_monotone;
        QCheck_alcotest.to_alcotest prop_pd_is_spanning_tree;
        Alcotest.test_case "brbc eps=0 star radius" `Quick
          test_brbc_epsilon_zero_is_star_radius;
        Alcotest.test_case "brbc eps=inf is mst" `Quick
          test_brbc_large_epsilon_is_mst;
        Alcotest.test_case "brbc rejects negative" `Quick
          test_brbc_rejects_negative;
        QCheck_alcotest.to_alcotest prop_brbc_radius_bound;
        QCheck_alcotest.to_alcotest prop_brbc_cost_interpolates;
        Alcotest.test_case "pd improves elmore" `Quick
          test_pd_improves_elmore_on_average ] ) ]
