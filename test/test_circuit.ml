(* Tests for waveforms, netlists, technology constants and deck I/O. *)

open Circuit

(* Waveforms ---------------------------------------------------------- *)

let test_dc () =
  Alcotest.(check (float 0.0)) "dc" 3.3 (Waveform.value (Waveform.Dc 3.3) 17.0)

let test_step () =
  let w = Waveform.Step { t0 = 1.0; v0 = 0.0; v1 = 5.0 } in
  Alcotest.(check (float 0.0)) "before" 0.0 (Waveform.value w 0.5);
  Alcotest.(check (float 0.0)) "at t0 still v0" 0.0 (Waveform.value w 1.0);
  Alcotest.(check (float 0.0)) "after" 5.0 (Waveform.value w 1.0001)

let test_ramp () =
  let w = Waveform.Ramp { t0 = 0.0; t1 = 2.0; v0 = 0.0; v1 = 4.0 } in
  Alcotest.(check (float 1e-12)) "mid" 2.0 (Waveform.value w 1.0);
  Alcotest.(check (float 0.0)) "clamped" 4.0 (Waveform.value w 10.0)

let test_pulse () =
  let w =
    Waveform.Pulse
      { v0 = 0.0; v1 = 1.0; delay = 1.0; rise = 1.0; fall = 1.0; width = 2.0;
        period = 10.0 }
  in
  Alcotest.(check (float 0.0)) "before delay" 0.0 (Waveform.value w 0.5);
  Alcotest.(check (float 1e-12)) "mid rise" 0.5 (Waveform.value w 1.5);
  Alcotest.(check (float 0.0)) "plateau" 1.0 (Waveform.value w 3.0);
  Alcotest.(check (float 1e-12)) "mid fall" 0.5 (Waveform.value w 4.5);
  Alcotest.(check (float 0.0)) "off" 0.0 (Waveform.value w 6.0);
  Alcotest.(check (float 1e-12)) "periodic" 0.5 (Waveform.value w 11.5)

let test_pwl () =
  let w = Waveform.Pwl [ (0.0, 0.0); (1.0, 1.0); (3.0, 0.0) ] in
  Alcotest.(check (float 1e-12)) "rising" 0.5 (Waveform.value w 0.5);
  Alcotest.(check (float 1e-12)) "falling" 0.5 (Waveform.value w 2.0);
  Alcotest.(check (float 0.0)) "before" 0.0 (Waveform.value w (-1.0));
  Alcotest.(check (float 0.0)) "after" 0.0 (Waveform.value w 99.0)

let test_waveform_validate () =
  let bad = Waveform.Pwl [ (1.0, 0.0); (0.5, 1.0) ] in
  Alcotest.(check bool) "decreasing pwl rejected" true
    (Result.is_error (Waveform.validate bad));
  let bad_pulse =
    Waveform.Pulse
      { v0 = 0.0; v1 = 1.0; delay = 0.0; rise = 5.0; fall = 5.0; width = 5.0;
        period = 10.0 }
  in
  Alcotest.(check bool) "overfull pulse rejected" true
    (Result.is_error (Waveform.validate bad_pulse));
  Alcotest.(check bool) "good ramp ok" true
    (Result.is_ok
       (Waveform.validate (Waveform.Ramp { t0 = 0.0; t1 = 1.0; v0 = 0.0; v1 = 1.0 })))

(* Netlist ------------------------------------------------------------ *)

let test_netlist_nodes () =
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" in
  let a' = Netlist.node nl "a" in
  let b = Netlist.node nl "b" in
  Alcotest.(check int) "same name same node" a a';
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check int) "ground is 0" 0 (Netlist.node nl "0");
  Alcotest.(check string) "name back" "a" (Netlist.node_name nl a);
  Alcotest.(check int) "count" 3 (Netlist.num_nodes nl)

let test_netlist_fresh () =
  let nl = Netlist.create () in
  let x = Netlist.fresh_node nl "w" in
  let y = Netlist.fresh_node nl "w" in
  Alcotest.(check bool) "fresh distinct" true (x <> y)

let test_netlist_elements () =
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" in
  Netlist.resistor nl ~name:"R1" a Netlist.ground 100.0;
  Netlist.capacitor nl a Netlist.ground 1e-12;
  Netlist.vsource nl a Netlist.ground (Waveform.Dc 1.0);
  Alcotest.(check int) "three elements" 3 (List.length (Netlist.elements nl));
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Netlist.add: duplicate element name R1") (fun () ->
      Netlist.resistor nl ~name:"R1" a Netlist.ground 50.0)

let test_netlist_rejects_bad_element () =
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" in
  Alcotest.check_raises "negative R"
    (Invalid_argument "Netlist.add: resistor: non-positive resistance")
    (fun () -> Netlist.resistor nl a Netlist.ground (-5.0));
  Alcotest.check_raises "shorted C"
    (Invalid_argument "Netlist.add: capacitor: shorted terminals") (fun () ->
      Netlist.capacitor nl a a 1e-12);
  Alcotest.check_raises "NaN C"
    (Invalid_argument "Netlist.add: capacitor: non-finite capacitance")
    (fun () -> Netlist.capacitor nl a Netlist.ground Float.nan);
  Alcotest.check_raises "infinite R"
    (Invalid_argument "Netlist.add: resistor: non-finite resistance")
    (fun () -> Netlist.resistor nl a Netlist.ground Float.infinity);
  Alcotest.check_raises "NaN source"
    (Invalid_argument "Netlist.add: non-finite waveform parameter")
    (fun () -> Netlist.vsource nl a Netlist.ground (Waveform.Dc Float.nan))

(* Technology --------------------------------------------------------- *)

let test_table1_values () =
  let t = Technology.table1 in
  Alcotest.(check (float 0.0)) "driver" 100.0 t.Technology.driver_resistance;
  Alcotest.(check (float 0.0)) "r/um" 0.03 t.Technology.wire_resistance;
  Alcotest.(check (float 1e-25)) "c/um" 0.352e-15 t.Technology.wire_capacitance;
  Alcotest.(check (float 1e-25)) "l/um" 492e-18 t.Technology.wire_inductance;
  Alcotest.(check (float 1e-22)) "sink load" 15.3e-15 t.Technology.sink_capacitance;
  Alcotest.(check (float 0.0)) "layout side um" 10_000.0 t.Technology.layout_side

let test_wire_formulas () =
  let t = Technology.table1 in
  Alcotest.(check (float 1e-9)) "R of 1mm" 30.0
    (Technology.wire_resistance_of t ~length:1000.0 ~width:1.0);
  Alcotest.(check (float 1e-9)) "R halves when wide" 15.0
    (Technology.wire_resistance_of t ~length:1000.0 ~width:2.0);
  Alcotest.(check (float 1e-22)) "C of 1mm" 0.352e-12
    (Technology.wire_capacitance_of t ~length:1000.0 ~width:1.0);
  Alcotest.(check (float 1e-22)) "C doubles when wide" 0.704e-12
    (Technology.wire_capacitance_of t ~length:1000.0 ~width:2.0)

(* Deck numbers ------------------------------------------------------- *)

let check_parse s expected =
  match Deck.parse_number s with
  | Ok v ->
      Alcotest.(check bool)
        (Printf.sprintf "%s = %g" s expected)
        true
        (abs_float (v -. expected) <= 1e-9 *. abs_float expected)
  | Error e -> Alcotest.fail (s ^ ": " ^ e)

let test_parse_numbers () =
  check_parse "100" 100.0;
  check_parse "4.7k" 4.7e3;
  check_parse "15.3f" 15.3e-15;
  check_parse "3meg" 3e6;
  check_parse "1e-9" 1e-9;
  check_parse "10pF" 10e-12;
  check_parse "0.03" 0.03;
  check_parse "2.5u" 2.5e-6;
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (Deck.parse_number "abc"));
  Alcotest.(check bool) "bad suffix rejected" true
    (Result.is_error (Deck.parse_number "1x"))

let test_number_roundtrip () =
  List.iter
    (fun x ->
      match Deck.parse_number (Deck.number_to_string x) with
      | Ok v ->
          Alcotest.(check bool)
            (Printf.sprintf "%g roundtrips" x)
            true
            (abs_float (v -. x) <= 1e-6 *. abs_float x)
      | Error e -> Alcotest.fail e)
    [ 100.0; 0.03; 15.3e-15; 492e-18 *. 1e3; 1e-12; 4.7e3; 2.2e6; 0.5 ]

(* Deck I/O ----------------------------------------------------------- *)

let sample_netlist () =
  let nl = Netlist.create () in
  let inp = Netlist.node nl "in" in
  let out = Netlist.node nl "out" in
  Netlist.vsource nl ~name:"V1" inp Netlist.ground
    (Waveform.Step { t0 = 0.0; v0 = 0.0; v1 = 1.0 });
  Netlist.resistor nl ~name:"R1" inp out 100.0;
  Netlist.capacitor nl ~name:"C1" out Netlist.ground 15.3e-15;
  Netlist.inductor nl ~name:"L1" out Netlist.ground 1e-9;
  Netlist.isource nl ~name:"I1" Netlist.ground out (Waveform.Dc 1e-6);
  nl

let test_deck_roundtrip () =
  let nl = sample_netlist () in
  let text = Deck.to_string ~title:"sample" nl in
  match Deck.of_string text with
  | Error e -> Alcotest.fail e
  | Ok nl' ->
      Alcotest.(check int) "node count" (Netlist.num_nodes nl)
        (Netlist.num_nodes nl');
      let es = Netlist.elements nl and es' = Netlist.elements nl' in
      Alcotest.(check int) "element count" (List.length es) (List.length es');
      List.iter2
        (fun a b ->
          Alcotest.(check string) "element name" (Element.name a)
            (Element.name b))
        es es';
      (* The rendered decks must agree exactly. *)
      Alcotest.(check string) "idempotent render" text
        (Deck.to_string ~title:"sample" nl')

let test_deck_parse_classic () =
  let text =
    "RC tree example\n\
     * comment line\n\
     V1 in 0 PULSE(0 1 0 1p 1p 1n 2n)\n\
     R1 in mid 4.7k\n\
     + \n\
     C1 mid 0 10p\n\
     .tran 1p 10n\n\
     .end\n"
  in
  match Deck.of_string text with
  | Error e -> Alcotest.fail e
  | Ok nl ->
      Alcotest.(check int) "elements" 3 (List.length (Netlist.elements nl));
      Alcotest.(check bool) "node mid exists" true
        (Netlist.find_node nl "mid" <> None)

let test_deck_parse_bare_dc () =
  match Deck.of_string "* t\nV1 a 0 5\nR1 a 0 1k\n.end\n" with
  | Error e -> Alcotest.fail e
  | Ok nl -> (
      match Netlist.elements nl with
      | [ Element.Vsource { wave = Waveform.Dc v; _ }; _ ] ->
          Alcotest.(check (float 0.0)) "dc 5" 5.0 v
      | _ -> Alcotest.fail "expected V then R")

let test_deck_parse_errors () =
  Alcotest.(check bool) "bad value" true
    (Result.is_error (Deck.of_string "* t\nR1 a 0 oops\n.end\n"));
  Alcotest.(check bool) "unknown element" true
    (Result.is_error (Deck.of_string "* t\nQ1 a b c model\n.end\n"));
  Alcotest.(check bool) "bad arity" true
    (Result.is_error (Deck.of_string "* t\nR1 a 0\n.end\n"))

let test_deck_rejects_non_finite () =
  List.iter
    (fun card ->
      match Deck.of_string ("* t\nR0 a 0 1k\n" ^ card ^ "\n.end\n") with
      | Error e ->
          Alcotest.(check bool) ("names line: " ^ e) true
            (String.length e > 7 && String.sub e 0 7 = "line 3:")
      | Ok _ -> Alcotest.failf "accepted %S" card)
    [ "C1 a 0 nan"; "R1 a 0 1e999"; "L1 a 0 inf"; "R1 a 0 1e305meg";
      "V1 a 0 DC nan"; "V1 a 0 PWL(0 0 inf 1)" ]

let test_deck_waveform_roundtrips () =
  (* Every waveform constructor must survive print -> parse exactly
     (value-wise at sample times). *)
  let waveforms =
    [ Waveform.Dc 2.5;
      Waveform.Step { t0 = 1e-9; v0 = 0.2; v1 = 1.8 };
      Waveform.Ramp { t0 = 0.0; t1 = 2e-9; v0 = 0.0; v1 = 3.3 };
      Waveform.Pulse
        { v0 = 0.0; v1 = 1.0; delay = 1e-9; rise = 0.1e-9; fall = 0.2e-9;
          width = 2e-9; period = 10e-9 };
      Waveform.Pwl [ (0.0, 0.0); (1e-9, 1.0); (5e-9, 0.25) ] ]
  in
  List.iteri
    (fun i wave ->
      let nl = Netlist.create () in
      let a = Netlist.node nl "a" in
      Netlist.vsource nl ~name:"V1" a Netlist.ground wave;
      Netlist.resistor nl ~name:"R1" a Netlist.ground 1e3;
      match Deck.of_string (Deck.to_string nl) with
      | Error e -> Alcotest.fail e
      | Ok nl' -> (
          match Netlist.elements nl' with
          | Element.Vsource { wave = wave'; _ } :: _ ->
              (* Compare sampled values across the interesting range. *)
              for s = 0 to 100 do
                let t = float_of_int s *. 0.15e-9 in
                Alcotest.(check bool)
                  (Printf.sprintf "waveform %d at %g" i t)
                  true
                  (abs_float (Waveform.value wave t -. Waveform.value wave' t)
                  < 1e-9)
              done
          | _ -> Alcotest.fail "expected a V source first"))
    waveforms

let test_deck_directives () =
  let text =
    "* directives\n\
     V1 in 0 1\n\
     R1 in out 1k\n\
     C1 out 0 1p\n\
     .tran 10p 5n\n\
     .ac dec 10 1meg 10g\n\
     .probe v(out) in\n\
     .options reltol=1e-4\n\
     .end\n"
  in
  match Deck.of_string_full text with
  | Error e -> Alcotest.fail e
  | Ok (nl, d) ->
      Alcotest.(check int) "elements" 3 (List.length (Netlist.elements nl));
      Alcotest.(check (list string)) "probes unwrapped" [ "out"; "in" ]
        d.Deck.probes;
      (* The .ac card is accepted and ignored: only the .tran is kept. *)
      (match d.Deck.analyses with
      | [ Deck.Tran { step; stop } ] ->
          Alcotest.(check (float 1e-18)) "tstep" 10e-12 step;
          Alcotest.(check (float 1e-15)) "tstop" 5e-9 stop
      | _ -> Alcotest.fail "expected the .tran alone")

let test_deck_bad_directive_rejected () =
  Alcotest.(check bool) "bad .tran" true
    (Result.is_error
       (Deck.of_string_full "* t\nR1 a 0 1k\n.tran oops 5n\n.end\n"))

let test_deck_probe_with_analysis_type () =
  match Deck.of_string_full "* t\nR1 a 0 1k\n.print tran v(a)\n.end\n" with
  | Error e -> Alcotest.fail e
  | Ok (_, d) ->
      Alcotest.(check (list string)) "probe after 'tran'" [ "a" ] d.Deck.probes

let test_netlist_stats () =
  let nl = sample_netlist () in
  let s = Netlist.stats nl in
  Alcotest.(check bool) "mentions counts" true
    (String.length s > 0 && String.contains s 'R')

let test_deck_file_roundtrip () =
  let nl = sample_netlist () in
  let path = Filename.temp_file "nontree" ".cir" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Deck.write_file ~title:"file test" path nl;
      match Deck.read_file path with
      | Error e -> Alcotest.fail e
      | Ok nl' ->
          Alcotest.(check int) "elements" 5 (List.length (Netlist.elements nl')))

let suites =
  [ ( "circuit",
      [ Alcotest.test_case "dc waveform" `Quick test_dc;
        Alcotest.test_case "step waveform" `Quick test_step;
        Alcotest.test_case "ramp waveform" `Quick test_ramp;
        Alcotest.test_case "pulse waveform" `Quick test_pulse;
        Alcotest.test_case "pwl waveform" `Quick test_pwl;
        Alcotest.test_case "waveform validate" `Quick test_waveform_validate;
        Alcotest.test_case "netlist nodes" `Quick test_netlist_nodes;
        Alcotest.test_case "netlist fresh nodes" `Quick test_netlist_fresh;
        Alcotest.test_case "netlist elements" `Quick test_netlist_elements;
        Alcotest.test_case "netlist rejects bad" `Quick
          test_netlist_rejects_bad_element;
        Alcotest.test_case "table1 values" `Quick test_table1_values;
        Alcotest.test_case "wire formulas" `Quick test_wire_formulas;
        Alcotest.test_case "parse numbers" `Quick test_parse_numbers;
        Alcotest.test_case "number roundtrip" `Quick test_number_roundtrip;
        Alcotest.test_case "deck roundtrip" `Quick test_deck_roundtrip;
        Alcotest.test_case "deck parse classic" `Quick test_deck_parse_classic;
        Alcotest.test_case "deck bare dc" `Quick test_deck_parse_bare_dc;
        Alcotest.test_case "deck parse errors" `Quick test_deck_parse_errors;
        Alcotest.test_case "deck rejects non-finite" `Quick
          test_deck_rejects_non_finite;
        Alcotest.test_case "deck file roundtrip" `Quick test_deck_file_roundtrip;
        Alcotest.test_case "deck waveform roundtrips" `Quick
          test_deck_waveform_roundtrips;
        Alcotest.test_case "deck directives" `Quick test_deck_directives;
        Alcotest.test_case "deck bad directive" `Quick
          test_deck_bad_directive_rejected;
        Alcotest.test_case "deck .print tran" `Quick
          test_deck_probe_with_analysis_type;
        Alcotest.test_case "netlist stats" `Quick test_netlist_stats ] ) ]
