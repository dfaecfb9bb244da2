(* Tests for lumping, Elmore delay, graph moments, and delay models. *)

open Geom

let tech = Circuit.Technology.table1

let two_pin_net length =
  Net.of_list [ Point.origin; Point.make length 0.0 ]

let random_routing seed pins =
  let g = Rng.create seed in
  Routing.mst_of_net (Netgen.uniform g ~region:(Rect.square 10_000.0) ~pins)

(* Elmore ------------------------------------------------------------- *)

let test_elmore_single_wire_analytic () =
  (* One 1000 um wire: t_ED = rd*(cw + 2*cpin) + rw*(cw/2 + cpin). *)
  let r = Routing.mst_of_net (two_pin_net 1000.0) in
  let cw = 0.352e-15 *. 1000.0 in
  let cpin = 15.3e-15 in
  let expected =
    (100.0 *. (cw +. (2.0 *. cpin))) +. (30.0 *. ((cw /. 2.0) +. cpin))
  in
  let d = Delay.Elmore.delays ~tech r in
  Alcotest.(check bool)
    (Printf.sprintf "elmore %.4g vs %.4g" d.(1) expected)
    true
    (abs_float (d.(1) -. expected) < 1e-15)

let test_elmore_monotone_along_path () =
  (* Delay accumulates along any root-to-leaf path. *)
  let r = random_routing 31 20 in
  let d = Delay.Elmore.delays ~tech r in
  let rooted = Routing.rooted r in
  Array.iteri
    (fun v parent ->
      if parent >= 0 then
        Alcotest.(check bool) "child >= parent" true (d.(v) >= d.(parent)))
    rooted.Graphs.Rooted.parent

let test_elmore_longer_wire_slower () =
  let d1 = (Delay.Elmore.delays ~tech (Routing.mst_of_net (two_pin_net 1000.0))).(1) in
  let d2 = (Delay.Elmore.delays ~tech (Routing.mst_of_net (two_pin_net 5000.0))).(1) in
  Alcotest.(check bool) "5mm slower than 1mm" true (d2 > d1);
  (* Wire delay grows quadratically; with the driver term the total is
     super-linear: more than 5x here. *)
  Alcotest.(check bool) "superlinear growth" true (d2 > 5.0 *. d1)

let test_elmore_rejects_non_tree () =
  let r = random_routing 7 10 in
  let u, v = List.hd (Routing.candidate_edges r) in
  let r' = Routing.add_edge r u v in
  Alcotest.check_raises "non-tree" (Invalid_argument "Routing.rooted: not a tree")
    (fun () -> ignore (Delay.Elmore.delays ~tech r'))

let test_total_capacitance () =
  let r = Routing.mst_of_net (two_pin_net 1000.0) in
  let expected = (0.352e-15 *. 1000.0) +. (2.0 *. 15.3e-15) in
  Alcotest.(check bool) "C_n0" true
    (abs_float (Delay.Elmore.total_capacitance ~tech r -. expected) < 1e-20)

(* The First_moment and Two_pole oracles' delay to every sink. *)
let first_moment r = Delay.Model.sink_delays Delay.Model.First_moment ~tech r
let two_pole r = Delay.Model.sink_delays Delay.Model.Two_pole ~tech r

(* Every sink's Elmore delay is the First_moment oracle's to 1e-9. *)
let elmore_is_first_moment r =
  let e = Delay.Elmore.delays ~tech r in
  List.for_all
    (fun (v, m) -> abs_float (e.(v) -. m) /. Float.max e.(v) 1e-18 <= 1e-9)
    (first_moment r)

(* The repository's key invariant: the conductance-matrix first moment
   must equal the Elmore formula on every tree. *)
let prop_elmore_equals_first_moment_on_trees =
  QCheck.Test.make ~name:"elmore = first moment on trees" ~count:60
    QCheck.(pair small_int (int_range 2 30))
    (fun (seed, pins) -> elmore_is_first_moment (random_routing seed pins))

let prop_elmore_equals_first_moment_with_widths =
  QCheck.Test.make ~name:"elmore = first moment with wire widths" ~count:30
    QCheck.(pair small_int (int_range 3 15))
    (fun (seed, pins) ->
      let r = random_routing seed pins in
      (* Widen a couple of edges. *)
      let g = Rng.create (seed + 99) in
      let r =
        List.fold_left
          (fun acc (e : Graphs.Wgraph.edge) ->
            if Rng.bool g then
              Routing.set_width acc e.u e.v (float_of_int (1 + Rng.int g 3))
            else acc)
          r
          (Graphs.Wgraph.edges (Routing.graph r))
      in
      elmore_is_first_moment r)

(* Moments on non-tree graphs ----------------------------------------- *)

let test_moments_on_cycle () =
  let r = random_routing 11 10 in
  let u, v = List.hd (Routing.candidate_edges r) in
  let r' = Routing.add_edge r u v in
  List.iter
    (fun (_, x) -> Alcotest.(check bool) "positive moment" true (x > 0.0))
    (first_moment r')

let prop_extra_edge_never_hurts_its_endpoint_resistance =
  (* Adding an edge from the source lowers (or keeps) the first moment
     at the far endpoint when that edge is a direct source connection
     of significant width... in general moments can go either way, but
     they must stay positive and finite. *)
  QCheck.Test.make ~name:"moments stay positive/finite on graphs" ~count:40
    QCheck.(pair small_int (int_range 4 20))
    (fun (seed, pins) ->
      let r = random_routing seed pins in
      let g = Rng.create (seed + 1) in
      let candidates = Array.of_list (Routing.candidate_edges r) in
      let u, v = candidates.(Rng.int g (Array.length candidates)) in
      List.for_all
        (fun (_, x) -> Float.is_finite x && x > 0.0)
        (first_moment (Routing.add_edge r u v)))

let test_two_pole_bounds () =
  let r = random_routing 13 20 in
  List.iter2
    (fun (_, m1) (_, t) ->
      Alcotest.(check bool) "positive" true (t > 0.0);
      Alcotest.(check bool) "below m1" true (t <= m1 +. 1e-18))
    (first_moment r) (two_pole r)

let test_higher_moments_shape () =
  let r = random_routing 3 8 in
  let ms = Moment_ref.higher_moments ~tech r ~order:3 in
  Alcotest.(check int) "order rows" 3 (Array.length ms);
  Array.iter
    (fun row ->
      Alcotest.(check int) "vertex cols" 8 (Array.length row);
      Array.iter
        (fun x -> Alcotest.(check bool) "positive" true (x > 0.0))
        row)
    ms

(* The moment oracles against the dense reference, on an MST with
   random widths plus up to three added wires: the First_moment
   oracle's delays are the reference's m1 to 1e-12 relative, the
   Two_pole oracle's the dominant-pole fit of its m1 and m2 to 1e-9
   (the fit's square root of 2·m2 − m1² loses digits to cancellation). *)
let prop_oracles_match_reference =
  QCheck.Test.make ~name:"moment oracles match the dense reference" ~count:40
    QCheck.(pair small_int (int_range 3 30))
    (fun (seed, pins) ->
      let g = Rng.create (seed + 7) and mst = random_routing seed pins in
      let r =
        List.fold_left
          (fun acc (e : Graphs.Wgraph.edge) ->
            if Rng.bool g then
              Routing.set_width acc e.u e.v (Rng.float_in g 0.5 3.0)
            else acc)
          mst
          (Graphs.Wgraph.edges (Routing.graph mst))
      in
      let r =
        List.fold_left
          (fun r _ ->
            match Routing.candidate_edges r with
            | [] -> r
            | cands ->
                let u, v = List.nth cands (Rng.int g (List.length cands)) in
                Routing.add_edge r u v)
          r
          (List.init (Rng.int g 4) Fun.id)
      in
      let ms = Moment_ref.higher_moments ~tech r ~order:2 in
      let m1 = ms.(0) and m2 = ms.(1) in
      let fit v =
        let disc = (2.0 *. m2.(v)) -. (m1.(v) *. m1.(v)) in
        let tau = if disc > 0.0 then sqrt disc else Float.infinity in
        if tau >= m1.(v) then m1.(v) *. log 2.0
        else m1.(v) -. tau +. (tau *. log 2.0)
      in
      let close tol reference ds =
        List.for_all
          (fun (v, d) ->
            abs_float (d -. reference v) <= tol *. abs_float (reference v))
          ds
      in
      close 1e-12 (fun v -> m1.(v)) (first_moment r)
      && close 1e-9 fit (two_pole r))

(* Lumping ------------------------------------------------------------ *)

let test_segments_for () =
  Alcotest.(check int) "fixed" 4 (Delay.Lumping.segments_for (Delay.Lumping.Fixed 4) 123.0);
  let per = Delay.Lumping.Per_length { unit_length = 1000.0; max_segments = 6 } in
  Alcotest.(check int) "short wire 1 seg" 1 (Delay.Lumping.segments_for per 500.0);
  Alcotest.(check int) "3 segs" 3 (Delay.Lumping.segments_for per 2500.0);
  Alcotest.(check int) "capped" 6 (Delay.Lumping.segments_for per 50_000.0)

let count_elements nl pred =
  List.length (List.filter pred (Circuit.Netlist.elements nl))

let test_lumping_structure () =
  let r = Routing.mst_of_net (two_pin_net 2500.0) in
  let nl, sinks =
    Delay.Lumping.circuit_of_routing ~tech
      ~segmentation:(Delay.Lumping.Fixed 3) r
  in
  Alcotest.(check (list string)) "sink names" [ "n1" ] sinks;
  (* 1 driver R + 3 segment Rs. *)
  Alcotest.(check int) "resistors" 4
    (count_elements nl (function Circuit.Element.Resistor _ -> true | _ -> false));
  (* 2 pin caps + 2 half-caps per segment * 3 segments. *)
  Alcotest.(check int) "capacitors" 8
    (count_elements nl (function Circuit.Element.Capacitor _ -> true | _ -> false));
  Alcotest.(check int) "one source" 1
    (count_elements nl (function Circuit.Element.Vsource _ -> true | _ -> false));
  Alcotest.(check int) "no inductors" 0
    (count_elements nl (function Circuit.Element.Inductor _ -> true | _ -> false))

let test_lumping_inductance () =
  let r = Routing.mst_of_net (two_pin_net 2500.0) in
  let nl, _ =
    Delay.Lumping.circuit_of_routing ~tech ~include_inductance:true
      ~segmentation:(Delay.Lumping.Fixed 3) r
  in
  Alcotest.(check int) "inductors" 3
    (count_elements nl (function Circuit.Element.Inductor _ -> true | _ -> false))

(* A Steiner point on a pin makes a zero-length wire, whose segments
   have zero R and C: both forms of the lowering refuse it through the
   same check, and a SPICE oracle's set-up turns that into its typed
   [spice.lumping] error. *)
let test_lumping_one_refusal () =
  let mst = random_routing 5 6 in
  let pts = Routing.points mst in
  let edges =
    (1, Array.length pts)
    :: List.map
         (fun (e : Graphs.Wgraph.edge) -> (e.u, e.v))
         (Graphs.Wgraph.edges (Routing.graph mst))
  in
  let r =
    Routing.with_points ~source:0 ~num_terminals:(Routing.num_terminals mst)
      (Array.append pts [| pts.(1) |])
      edges
  in
  let refusal what lower =
    match lower () with
    | () -> Alcotest.failf "%s lowered a zero-length wire" what
    | exception Invalid_argument msg -> msg
  in
  Alcotest.(check string) "one refusal"
    (refusal "system" (fun () -> ignore (Delay.Lumping.system ~tech r)))
    (refusal "circuit_of_routing" (fun () ->
         ignore (Delay.Lumping.circuit_of_routing ~tech r)));
  match Delay.Model.prepare (Delay.Model.Spice Delay.Model.fast_spice) ~tech r with
  | Error (Nontree_error.Non_finite { stage = "spice.lumping"; _ }) -> ()
  | Error e -> Alcotest.fail (Nontree_error.to_string e)
  | Ok _ -> Alcotest.fail "prepare accepted a zero-length wire"

let test_lumping_total_capacitance_matches () =
  (* The lumped circuit's total capacitance must equal the analytic
     C_n0 used by the Elmore formula. *)
  let r = random_routing 17 12 in
  let nl, _ = Delay.Lumping.circuit_of_routing ~tech r in
  let total =
    List.fold_left
      (fun acc e ->
        match e with
        | Circuit.Element.Capacitor { farads; _ } -> acc +. farads
        | _ -> acc)
      0.0
      (Circuit.Netlist.elements nl)
  in
  let expected = Delay.Elmore.total_capacitance ~tech r in
  Alcotest.(check bool)
    (Printf.sprintf "%.4g vs %.4g" total expected)
    true
    (abs_float (total -. expected) /. expected < 1e-9)

(* Model oracles ------------------------------------------------------ *)

let test_model_names () =
  Alcotest.(check string) "elmore" "elmore" (Delay.Model.name Delay.Model.Elmore_tree);
  Alcotest.(check string) "spice" "spice"
    (Delay.Model.name (Delay.Model.Spice Delay.Model.fast_spice));
  Alcotest.(check string) "rlc" "spice-rlc"
    (Delay.Model.name (Delay.Model.Spice Delay.Model.rlc_spice))

let test_spice_vs_elmore_fidelity () =
  (* On trees, SPICE's 50% delay is known to track Elmore closely
     (Boese et al. [4]); sanity: ratio within [0.3, 1.05] — Elmore is
     an upper-bound-flavoured estimate. *)
  let r = random_routing 23 10 in
  let e = Delay.Model.max_delay Delay.Model.Elmore_tree ~tech r in
  let s =
    Delay.Model.max_delay (Delay.Model.Spice Delay.Model.default_spice) ~tech r
  in
  let ratio = s /. e in
  Alcotest.(check bool)
    (Printf.sprintf "spice/elmore = %.3f" ratio)
    true
    (ratio > 0.3 && ratio < 1.05)

let prop_spice_elmore_fidelity =
  (* The Boese et al. observation the paper leans on: SPICE 50% delay
     tracks Elmore tightly on trees. Property over random nets. *)
  QCheck.Test.make ~name:"spice/elmore ratio stays in a tight band" ~count:15
    QCheck.(pair small_int (int_range 4 15))
    (fun (seed, pins) ->
      let r = random_routing seed pins in
      let e = Delay.Model.max_delay Delay.Model.Elmore_tree ~tech r in
      let s =
        Delay.Model.max_delay (Delay.Model.Spice Delay.Model.fast_spice) ~tech r
      in
      let ratio = s /. e in
      ratio > 0.3 && ratio < 1.1)

let prop_two_pole_at_least_as_good_as_ln2 =
  (* The two-pole estimate should beat the naive ln2*m1 rule against
     SPICE on most nets (it corrects for the pole spread). *)
  QCheck.Test.make ~name:"two-pole closer to spice than ln2*m1 (usually)"
    ~count:10
    QCheck.(pair small_int (int_range 5 12))
    (fun (seed, pins) ->
      let r = random_routing (seed + 500) pins in
      let spice =
        Delay.Model.max_delay (Delay.Model.Spice Delay.Model.fast_spice) ~tech r
      in
      let m1 = Delay.Model.max_delay Delay.Model.First_moment ~tech r in
      let tp = Delay.Model.max_delay Delay.Model.Two_pole ~tech r in
      let err_ln2 = abs_float ((m1 *. log 2.0) -. spice) in
      let err_tp = abs_float (tp -. spice) in
      (* Allow a small slack: on some topologies ln2*m1 happens to be
         lucky; two-pole must never be wildly worse. *)
      err_tp <= (2.0 *. err_ln2) +. (0.02 *. spice))

let test_spice_on_non_tree () =
  (* The whole point of the paper: the SPICE oracle must evaluate
     non-tree routings. *)
  let r = random_routing 29 8 in
  let u, v = List.hd (Routing.candidate_edges r) in
  let r' = Routing.add_edge r u v in
  let s =
    Delay.Model.max_delay (Delay.Model.Spice Delay.Model.fast_spice) ~tech r'
  in
  Alcotest.(check bool) "positive delay" true (s > 0.0 && Float.is_finite s)

let test_rlc_close_to_rc () =
  (* At these geometries inductive impedance is small; RLC delay should
     be within ~15% of RC delay. *)
  let r = random_routing 41 8 in
  let rc =
    Delay.Model.max_delay (Delay.Model.Spice Delay.Model.default_spice) ~tech r
  in
  let rlc =
    Delay.Model.max_delay (Delay.Model.Spice Delay.Model.rlc_spice) ~tech r
  in
  Alcotest.(check bool)
    (Printf.sprintf "rc %.3g vs rlc %.3g" rc rlc)
    true
    (abs_float (rlc -. rc) /. rc < 0.15)

let suites =
  [ ( "delay",
      [ Alcotest.test_case "elmore single wire analytic" `Quick
          test_elmore_single_wire_analytic;
        Alcotest.test_case "elmore monotone on paths" `Quick
          test_elmore_monotone_along_path;
        Alcotest.test_case "longer wire slower" `Quick
          test_elmore_longer_wire_slower;
        Alcotest.test_case "elmore rejects non-tree" `Quick
          test_elmore_rejects_non_tree;
        Alcotest.test_case "total capacitance" `Quick test_total_capacitance;
        QCheck_alcotest.to_alcotest prop_elmore_equals_first_moment_on_trees;
        QCheck_alcotest.to_alcotest prop_elmore_equals_first_moment_with_widths;
        Alcotest.test_case "moments on cycle" `Quick test_moments_on_cycle;
        QCheck_alcotest.to_alcotest
          prop_extra_edge_never_hurts_its_endpoint_resistance;
        QCheck_alcotest.to_alcotest prop_oracles_match_reference;
        Alcotest.test_case "two-pole bounds" `Quick test_two_pole_bounds;
        Alcotest.test_case "higher moments shape" `Quick
          test_higher_moments_shape;
        Alcotest.test_case "segments_for" `Quick test_segments_for;
        Alcotest.test_case "lumping structure" `Quick test_lumping_structure;
        Alcotest.test_case "lumping inductance" `Quick test_lumping_inductance;
        Alcotest.test_case "lumping one refusal for both forms" `Quick
          test_lumping_one_refusal;
        Alcotest.test_case "lumped C total matches" `Quick
          test_lumping_total_capacitance_matches;
        Alcotest.test_case "model names" `Quick test_model_names;
        Alcotest.test_case "spice vs elmore fidelity" `Quick
          test_spice_vs_elmore_fidelity;
        QCheck_alcotest.to_alcotest prop_spice_elmore_fidelity;
        QCheck_alcotest.to_alcotest prop_two_pole_at_least_as_good_as_ln2;
        Alcotest.test_case "spice on non-tree" `Quick test_spice_on_non_tree;
        Alcotest.test_case "rlc close to rc" `Quick test_rlc_close_to_rc ] ) ]
