(* Analytic references: delays checked against closed-form circuit
   theory, each with a stated tolerance, rather than against another
   mode of the same code. *)

open Circuit

(* A resistor R from an ideal unit step into a grounded capacitor C:
   v(t) = 1 - exp(-t/RC), so the 50 % delay is RC ln 2.

   Tolerance: the engine's first trapezoidal step averages b(0) = 0
   and b(dt) = 1, which turns the step into a ramp one step wide and
   delays every crossing by about dt/2 (a known bias, not yet fixed);
   on top of that, 0.1 % of RC ln 2 for the integration itself. *)
let test_rc_step (label, options) () =
  let r = 1e3 and c = 1e-12 in
  let nl = Netlist.create () in
  let inp = Netlist.node nl "in" and out = Netlist.node nl "out" in
  Netlist.vsource nl inp Netlist.ground
    (Waveform.Step { t0 = 0.0; v0 = 0.0; v1 = 1.0 });
  Netlist.resistor nl inp out r;
  Netlist.capacitor nl out Netlist.ground c;
  let horizon = 4.0 *. r *. c in
  let dt = horizon /. float_of_int options.Spice.Engine.steps_per_chunk in
  let expected = r *. c *. log 2.0 in
  let tolerance = (dt /. 2.0) +. (1e-3 *. expected) in
  match Spice.Engine.threshold_delays ~options nl ~probes:[ "out" ] ~horizon with
  | [ (_, Some t) ] ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: t50 %.6g s vs RC ln 2 = %.6g s (tolerance %.3g s)"
           label t expected tolerance)
        true
        (abs_float (t -. expected) <= tolerance)
  | _ -> Alcotest.fail "one crossing expected"

(* An RC ladder: pins on a line, so the MST is the chain 0-1-2-3 with
   wires of 1000, 2000 and 3000 um. Under the pi model each wire puts
   half its capacitance at either end and every pin carries one sink
   load. Elmore's sum for vertex k is then

     m1(k) = Rd * Ctotal + sum over wires i on the path to k of
             R_i * (capacitance at or beyond the wire's far end),

   which [Moments.first_moments] must reproduce to rounding (relative
   1e-12) although it solves G m = c instead of summing. *)
let test_ladder_first_moment () =
  let tech = Technology.table1 in
  let xs = [| 0.0; 1000.0; 3000.0; 6000.0 |] in
  let points = Array.map (fun x -> Geom.Point.make x 0.0) xs in
  let r =
    Routing.with_points ~source:0 ~num_terminals:4 points
      [ (0, 1); (1, 2); (2, 3) ]
  in
  let len i = xs.(i + 1) -. xs.(i) in
  let wire_r i = tech.Technology.wire_resistance *. len i in
  let wire_c i = tech.Technology.wire_capacitance *. len i in
  (* Node capacitances, hand-assembled. *)
  let cn =
    Array.init 4 (fun v ->
        tech.Technology.sink_capacitance
        +. (if v > 0 then wire_c (v - 1) /. 2.0 else 0.0)
        +. if v < 3 then wire_c v /. 2.0 else 0.0)
  in
  let downstream k =
    let s = ref 0.0 in
    for v = k to 3 do
      s := !s +. cn.(v)
    done;
    !s
  in
  let elmore k =
    let m = ref (tech.Technology.driver_resistance *. downstream 0) in
    for i = 0 to k - 1 do
      m := !m +. (wire_r i *. downstream (i + 1))
    done;
    !m
  in
  let m1 = Delay.Moments.first_moments ~tech r in
  for k = 0 to 3 do
    let expected = elmore k in
    Alcotest.(check bool)
      (Printf.sprintf "vertex %d: %.9g s vs Elmore %.9g s" k m1.(k) expected)
      true
      (abs_float (m1.(k) -. expected) <= 1e-12 *. expected)
  done

let suites =
  [ ( "reference",
      [ Alcotest.test_case "rc step t50 = RC ln 2, fast" `Quick
          (test_rc_step ("fast", Spice.Engine.fast_options));
        Alcotest.test_case "rc step t50 = RC ln 2, default" `Quick
          (test_rc_step ("default", Spice.Engine.default_options));
        Alcotest.test_case "rc step t50 = RC ln 2, accurate" `Quick
          (test_rc_step ("accurate", Spice.Engine.accurate_options));
        Alcotest.test_case "rc ladder first moment = Elmore sum" `Quick
          test_ladder_first_moment ] ) ]
