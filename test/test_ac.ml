(* Tests for AC analysis against closed-form frequency responses. *)

open Circuit

let rc_lowpass () =
  (* R = 1 kΩ, C = 1 pF: f3dB = 1/(2 pi RC) ~ 159.155 MHz. *)
  let nl = Netlist.create () in
  let inp = Netlist.node nl "in" in
  let out = Netlist.node nl "out" in
  Netlist.vsource nl ~name:"Vin" inp Netlist.ground
    (Waveform.Step { t0 = 0.0; v0 = 0.0; v1 = 1.0 });
  Netlist.resistor nl inp out 1e3;
  Netlist.capacitor nl out Netlist.ground 1e-12;
  nl

(* The sweep of one probe. *)
let analyze nl ~source ~probe ~frequencies =
  match Spice.Ac.analyze nl ~source ~probes:[ probe ] ~frequencies with
  | [ sweep ] -> sweep
  | _ -> Alcotest.fail "one sweep per probe expected"

let test_log_frequencies () =
  let fs = Spice.Ac.log_frequencies ~f_start:1.0 ~f_stop:1000.0 ~points_per_decade:1 in
  Alcotest.(check int) "4 points" 4 (List.length fs);
  Alcotest.(check (float 1e-9)) "first" 1.0 (List.hd fs);
  Alcotest.(check bool) "bad args rejected" true
    (try
       ignore (Spice.Ac.log_frequencies ~f_start:0.0 ~f_stop:1.0 ~points_per_decade:5);
       false
     with Invalid_argument _ -> true)

let test_rc_magnitude_analytic () =
  let nl = rc_lowpass () in
  let rc = 1e3 *. 1e-12 in
  let freqs = Spice.Ac.log_frequencies ~f_start:1e6 ~f_stop:1e10 ~points_per_decade:5 in
  let sweep = analyze nl ~source:"Vin" ~probe:"out" ~frequencies:freqs in
  List.iter
    (fun (p : Spice.Ac.point) ->
      let omega = 2.0 *. Float.pi *. p.Spice.Ac.freq_hz in
      let expected = 1.0 /. sqrt (1.0 +. ((omega *. rc) ** 2.0)) in
      let got = Complex.norm p.Spice.Ac.response in
      Alcotest.(check bool)
        (Printf.sprintf "|H| at %.3g Hz: %.5f vs %.5f" p.Spice.Ac.freq_hz got expected)
        true
        (abs_float (got -. expected) < 1e-9))
    sweep

let test_rc_phase_analytic () =
  let nl = rc_lowpass () in
  let rc = 1e3 *. 1e-12 in
  (* At the pole frequency the phase is -45 degrees. *)
  let f_pole = 1.0 /. (2.0 *. Float.pi *. rc) in
  match analyze nl ~source:"Vin" ~probe:"out" ~frequencies:[ f_pole ] with
  | [ p ] ->
      Alcotest.(check bool) "phase -45" true
        (abs_float (Spice.Ac.phase_deg p -. -45.0) < 0.01)
  | _ -> Alcotest.fail "one point expected"

let test_rc_bandwidth () =
  let nl = rc_lowpass () in
  let rc = 1e3 *. 1e-12 in
  let f3 = 1.0 /. (2.0 *. Float.pi *. rc) in
  let freqs =
    Spice.Ac.log_frequencies ~f_start:1e6 ~f_stop:1e10 ~points_per_decade:20
  in
  let sweep = analyze nl ~source:"Vin" ~probe:"out" ~frequencies:freqs in
  match Spice.Ac.bandwidth_3db sweep with
  | Some bw ->
      Alcotest.(check bool)
        (Printf.sprintf "bw %.4g vs %.4g" bw f3)
        true
        (abs_float (bw -. f3) /. f3 < 0.02)
  | None -> Alcotest.fail "expected a 3 dB point"

let test_rlc_resonance_peak () =
  (* Series RLC, underdamped: |H| peaks near the resonant frequency
     1/(2 pi sqrt(LC)) ~ 503 MHz, well above 1 (0 dB). *)
  let nl = Netlist.create () in
  let inp = Netlist.node nl "in" in
  let mid = Netlist.node nl "mid" in
  let out = Netlist.node nl "out" in
  Netlist.vsource nl ~name:"Vin" inp Netlist.ground (Waveform.Dc 0.0);
  Netlist.resistor nl inp mid 0.6324555;
  Netlist.inductor nl mid out 1e-9;
  Netlist.capacitor nl out Netlist.ground 1e-10;
  let f0 = 1.0 /. (2.0 *. Float.pi *. sqrt (1e-9 *. 1e-10)) in
  let freqs =
    Spice.Ac.log_frequencies ~f_start:(f0 /. 100.0) ~f_stop:(f0 *. 100.0)
      ~points_per_decade:40
  in
  let sweep = analyze nl ~source:"Vin" ~probe:"out" ~frequencies:freqs in
  let peak_f, peak_db =
    List.fold_left
      (fun (bf, bm) p ->
        let m = Spice.Ac.magnitude_db p in
        if m > bm then (p.Spice.Ac.freq_hz, m) else (bf, bm))
      (0.0, neg_infinity) sweep
  in
  (* Q = 1/(2 zeta) = 5 -> peak ~ 14 dB. *)
  Alcotest.(check bool)
    (Printf.sprintf "peak %.1f dB at %.3g Hz" peak_db peak_f)
    true
    (abs_float (peak_db -. 14.0) < 0.5 && abs_float (peak_f -. f0) /. f0 < 0.05)

let test_unknown_source_and_probe () =
  let nl = rc_lowpass () in
  Alcotest.(check bool) "unknown source" true
    (try
       ignore (analyze nl ~source:"Vxx" ~probe:"out" ~frequencies:[ 1e6 ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unknown probe" true
    (try
       ignore (analyze nl ~source:"Vin" ~probe:"nope" ~frequencies:[ 1e6 ]);
       false
     with Invalid_argument _ -> true)

let test_other_sources_silenced () =
  (* A second source must be zeroed during the sweep of the first: the
     response equals the single-source case. *)
  let build extra =
    let nl = Netlist.create () in
    let inp = Netlist.node nl "in" in
    let out = Netlist.node nl "out" in
    Netlist.vsource nl ~name:"Vin" inp Netlist.ground (Waveform.Dc 0.0);
    Netlist.resistor nl inp out 1e3;
    Netlist.capacitor nl out Netlist.ground 1e-12;
    if extra then begin
      let aux = Netlist.node nl "aux" in
      Netlist.vsource nl ~name:"Vaux" aux Netlist.ground (Waveform.Dc 5.0);
      Netlist.resistor nl aux out 2e3
    end
    else begin
      (* Same resistive loading, grounded. *)
      let aux = Netlist.node nl "aux" in
      Netlist.resistor nl ~name:"Rload" aux out 2e3;
      Netlist.resistor nl ~name:"Rshort" aux Netlist.ground 1e-3
    end;
    nl
  in
  let f = [ 1e8 ] in
  let with_src =
    analyze (build true) ~source:"Vin" ~probe:"out" ~frequencies:f
  in
  let without =
    analyze (build false) ~source:"Vin" ~probe:"out" ~frequencies:f
  in
  match (with_src, without) with
  | [ a ], [ b ] ->
      Alcotest.(check bool) "zeroed source acts as short" true
        (Complex.norm (Complex.sub a.Spice.Ac.response b.Spice.Ac.response)
        < 1e-3)
  | _ -> Alcotest.fail "one point each"

let test_csv () =
  let nl = rc_lowpass () in
  let sweep = analyze nl ~source:"Vin" ~probe:"out" ~frequencies:[ 1e6; 1e7 ] in
  let csv = Spice.Ac.to_csv sweep in
  Alcotest.(check bool) "header + 2 rows" true
    (List.length (String.split_on_char '\n' (String.trim csv)) = 3)

(* The routing angle: a non-tree LDRG topology should have at least the
   bandwidth of the MST at its slowest sink (lower resistance, faster
   settling => wider band). *)
let test_routing_bandwidth_improves () =
  let tech = Circuit.Technology.table1 in
  let g = Rng.create 1721 in
  let net = Geom.Netgen.uniform g ~region:(Geom.Rect.square 10_000.0) ~pins:10 in
  let mst = Routing.mst_of_net net in
  let trace = Nontree.Ldrg.run ~model:Delay.Model.First_moment ~tech mst in
  let graph = trace.Nontree.Ldrg.final in
  if trace.Nontree.Ldrg.steps = [] then ()
  else begin
    (* Slowest MST sink by first moment. *)
    let worst =
      List.fold_left
        (fun (bv, bd) (v, d) -> if d > bd then (v, d) else (bv, bd))
        (1, 0.0)
        (Delay.Model.sink_delays Delay.Model.First_moment ~tech mst)
      |> fst
    in
    let bandwidth r =
      let nl, _ = Delay.Lumping.circuit_of_routing ~tech r in
      let freqs =
        Spice.Ac.log_frequencies ~f_start:1e6 ~f_stop:1e11 ~points_per_decade:10
      in
      let sweep =
        analyze nl ~source:"Vin"
          ~probe:(Delay.Lumping.vertex_node_name worst) ~frequencies:freqs
      in
      match Spice.Ac.bandwidth_3db sweep with
      | Some bw -> bw
      | None -> Alcotest.fail "no 3dB point"
    in
    let bw_mst = bandwidth mst and bw_graph = bandwidth graph in
    Alcotest.(check bool)
      (Printf.sprintf "bw %.3g -> %.3g" bw_mst bw_graph)
      true
      (bw_graph >= 0.95 *. bw_mst)
  end

(* A resistor pair floating free of the driven net: G is singular there
   and C does not cover it, so G + jωC has no usable pivot. The sweep
   must report it as a typed error, as the transient does. *)
let test_singular_deck () =
  let deck =
    "* floating resistor pair\n\
     V1 in 0 DC 1\n\
     R1 in out 1k\n\
     C1 out 0 1p\n\
     R2 a b 1k\n\
     .end\n"
  in
  match Circuit.Deck.of_string deck with
  | Error e -> Alcotest.fail e
  | Ok nl -> (
      match
        analyze nl ~source:"V1" ~probe:"out" ~frequencies:[ 1e6 ]
      with
      | exception
          Nontree_error.Error
            (Nontree_error.Singular_matrix { stage = "spice.ac"; _ }) ->
          ()
      | _ -> Alcotest.fail "expected Singular_matrix in spice.ac")

(* The sparse sweep against the dense LU on the same real embedding
   [G −ωC; ωC G]·[xr; xi] = [b; 0], at every node of a routing's
   lowering (a tree, and its non-tree LDRG output) and of a series RLC
   stage, over 1e5–1e11 Hz. Each circuit has the one source Vin, so b
   is its unit drive. *)
let test_matches_dense_reference () =
  let tech = Circuit.Technology.table1 in
  let mst =
    Routing.mst_of_net
      (Geom.Netgen.uniform (Rng.create 11)
         ~region:(Geom.Rect.square 10_000.0) ~pins:10)
  in
  let trace = Nontree.Ldrg.run ~model:Delay.Model.Two_pole ~tech mst in
  Alcotest.(check bool) "LDRG adds a wire" true (trace.Nontree.Ldrg.steps <> []);
  let routed r = fst (Delay.Lumping.circuit_of_routing ~tech r) in
  let rlc =
    let nl = Netlist.create () in
    let inp = Netlist.node nl "in" in
    let mid = Netlist.node nl "mid" in
    let out = Netlist.node nl "out" in
    Netlist.vsource nl ~name:"Vin" inp Netlist.ground (Waveform.Dc 0.0);
    Netlist.resistor nl inp mid 0.6324555;
    Netlist.inductor nl mid out 1e-9;
    Netlist.capacitor nl out Netlist.ground 1e-10;
    nl
  in
  let freqs =
    Spice.Ac.log_frequencies ~f_start:1e5 ~f_stop:1e11 ~points_per_decade:2
  in
  List.iter
    (fun (what, nl) ->
      let sys = Spice.Mna.build nl in
      let n = sys.Spice.Mna.size in
      let g = Matrix.of_csc sys.Spice.Mna.g_csc
      and c = Matrix.of_csc sys.Spice.Mna.c_csc in
      let b = Array.make (2 * n) 0.0 in
      Array.iter
        (fun { Spice.Mna.row; sign; _ } -> b.(row) <- b.(row) +. sign)
        sys.Spice.Mna.sources;
      let dense =
        List.map
          (fun f ->
            let omega = 2.0 *. Float.pi *. f in
            let a = Matrix.create (2 * n) (2 * n) in
            for i = 0 to n - 1 do
              for j = 0 to n - 1 do
                Matrix.set a i j (Matrix.get g i j);
                Matrix.set a (n + i) (n + j) (Matrix.get g i j);
                Matrix.set a i (n + j) (-.(omega *. Matrix.get c i j));
                Matrix.set a (n + i) j (omega *. Matrix.get c i j)
              done
            done;
            Lu.solve_matrix a b)
          freqs
      in
      (* One sweep serves every node. *)
      let nodes = List.init (Netlist.num_nodes nl - 1) (fun k -> k + 1) in
      List.iter2
        (fun node sweep ->
          let u = sys.Spice.Mna.unknown_of_node.(node) in
          List.iter2
            (fun (p : Spice.Ac.point) x ->
              let expected = { Complex.re = x.(u); im = x.(n + u) } in
              let err =
                Complex.norm (Complex.sub p.Spice.Ac.response expected)
                /. Complex.norm expected
              in
              if not (err <= 1e-12) then
                Alcotest.failf "%s, node %s, %.3g Hz: relative error %.3e"
                  what (Netlist.node_name nl node) p.Spice.Ac.freq_hz err)
            sweep dense)
        nodes
        (Spice.Ac.analyze nl ~source:"Vin"
           ~probes:(List.map (Netlist.node_name nl) nodes)
           ~frequencies:freqs))
    [ ("MST", routed mst); ("LDRG", routed trace.Nontree.Ldrg.final); ("RLC", rlc) ]

let suites =
  [ ( "ac",
      [ Alcotest.test_case "log frequencies" `Quick test_log_frequencies;
        Alcotest.test_case "rc magnitude analytic" `Quick
          test_rc_magnitude_analytic;
        Alcotest.test_case "rc phase -45 at pole" `Quick test_rc_phase_analytic;
        Alcotest.test_case "rc 3dB bandwidth" `Quick test_rc_bandwidth;
        Alcotest.test_case "rlc resonance peak" `Quick test_rlc_resonance_peak;
        Alcotest.test_case "unknown source/probe" `Quick
          test_unknown_source_and_probe;
        Alcotest.test_case "other sources silenced" `Quick
          test_other_sources_silenced;
        Alcotest.test_case "csv" `Quick test_csv;
        Alcotest.test_case "routing bandwidth improves" `Quick
          test_routing_bandwidth_improves;
        Alcotest.test_case "ac singular deck is a typed error" `Quick
          test_singular_deck;
        Alcotest.test_case "ac matches dense reference" `Quick
          test_matches_dense_reference ] ) ]
