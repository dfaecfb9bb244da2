(* Analytic references: delays checked against closed-form circuit
   theory, each with a stated tolerance, rather than against another
   mode of the same code. *)

open Circuit

(* A resistor R from an ideal unit step into a grounded capacitor C:
   v(t) = 1 - exp(-t/RC), so the 50 % delay is RC ln 2.

   Tolerance: 0.1 % of RC ln 2. The engine measures each crossing from
   the input's own 50 % point on the solver grid, which cancels the
   one-step ramp the trapezoidal rule makes of the step, so what is
   left is the integration error itself. *)
let rc_t50 ~wave (label, options) () =
  let r = 1e3 and c = 1e-12 in
  let nl = Netlist.create () in
  let inp = Netlist.node nl "in" and out = Netlist.node nl "out" in
  Netlist.vsource nl inp Netlist.ground wave;
  Netlist.resistor nl inp out r;
  Netlist.capacitor nl out Netlist.ground c;
  let horizon = 4.0 *. r *. c in
  let expected = r *. c *. log 2.0 in
  let tolerance = 1e-3 *. expected in
  match
    Spice.Engine.threshold_delays_result ~options nl ~probes:[ "out" ] ~horizon
  with
  | Ok [ (_, Some t) ] ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: t50 %.6g s vs RC ln 2 = %.6g s (tolerance %.3g s)"
           label t expected tolerance)
        true
        (abs_float (t -. expected) <= tolerance)
  | _ -> Alcotest.fail "one crossing expected"

let test_rc_step = rc_t50 ~wave:(Waveform.Step { t0 = 0.0; v0 = 0.0; v1 = 1.0 })

(* The same stage driven by a PULSE whose 1 ps rise is a thousandth of
   RC, 0.2 ns after t = 0: its delay runs from the PULSE's own 50 %
   crossing on the solver grid, so it reads RC ln 2 within the step's
   tolerance (a ramp of rise tr delays the output by tr/2 plus a
   relative O(tr/RC)² — here 1e-7 — beyond RC ln 2). *)
let test_rc_pulse =
  rc_t50
    ~wave:
      (Waveform.Pulse
         { v0 = 0.0; v1 = 1.0; delay = 0.2e-9; rise = 1e-12; fall = 1e-12;
           width = 1.0; period = 2.0 })

(* An RC ladder: pins on a line, so the MST is the chain 0-1-2-3 with
   wires of 1000, 2000 and 3000 um. Under the pi model each wire puts
   half its capacitance at either end and every pin carries one sink
   load. Elmore's sum for vertex k is then

     m1(k) = Rd * Ctotal + sum over wires i on the path to k of
             R_i * (capacitance at or beyond the wire's far end),

   which the First_moment oracle must reproduce to rounding (relative
   1e-12) at every sink although it solves G m = c instead of summing. *)
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
  let m1 = Delay.Model.sink_delays Delay.Model.First_moment ~tech r in
  Alcotest.(check (list int)) "sinks" [ 1; 2; 3 ] (List.map fst m1);
  List.iter
    (fun (k, m) ->
      let expected = elmore k in
      Alcotest.(check bool)
        (Printf.sprintf "vertex %d: %.9g s vs Elmore %.9g s" k m expected)
        true
        (abs_float (m -. expected) <= 1e-12 *. expected))
    m1

(* Convergence in step count: the fast profile's 2 pi-segments per wire
   on a seeded 10-pin MST and on one LDRG trial routing (the MST plus
   the wire LDRG adds first), against the same circuits integrated with
   20,000 steps per chunk. Trapezoidal integration is second order, so
   each doubling of the step count should cut the error about 4x; the
   test asks for 3x in the mean sink error over 40 -> 80 -> 160 steps,
   and for the fast profile to be within 0.1 % in the mean sink error
   and in each routing's objective, its slowest sink's delay. *)
let convergence_routings () =
  let tech = Technology.table1 in
  let m =
    Routing.mst_of_net
      (Geom.Netgen.uniform (Rng.create 4242)
         ~region:(Geom.Rect.square 10_000.0) ~pins:10)
  in
  let trace = Nontree.Ldrg.run ~model:Delay.Model.Two_pole ~tech m in
  if trace.Nontree.Ldrg.steps = [] then Alcotest.fail "LDRG added no wire";
  (tech, [ m; Nontree.Ldrg.routing_after trace 1 ])

let spice_with_steps steps =
  let cfg = Delay.Model.fast_spice in
  Delay.Model.Spice
    { cfg with
      Delay.Model.options =
        { cfg.Delay.Model.options with Spice.Engine.steps_per_chunk = steps } }

let rel d d_ref = abs_float (d -. d_ref) /. d_ref
let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
let max_delay ds = List.fold_left (fun acc (_, d) -> Float.max acc d) 0.0 ds

(* Per (routing, reference delays): the relative error of every sink
   delay and of the objective. *)
let errors ~tech cases model =
  List.map
    (fun (r, reference) ->
      let ds = Delay.Model.sink_delays model ~tech r in
      ( List.map2
          (fun (s, d) (s', d_ref) ->
            assert (s = s');
            rel d d_ref)
          ds reference,
        rel (max_delay ds) (max_delay reference) ))
    cases

let mean_sink_error errs = mean (List.concat_map fst errs)

let test_step_convergence () =
  let tech, routings = convergence_routings () in
  let cases =
    List.map
      (fun r -> (r, Delay.Model.sink_delays (spice_with_steps 20_000) ~tech r))
      routings
  in
  let fast = errors ~tech cases (Delay.Model.Spice Delay.Model.fast_spice) in
  let within label e =
    Alcotest.(check bool)
      (Printf.sprintf "fast profile %s error %.3g%% <= 0.1%%" label (100.0 *. e))
      true (e <= 1e-3)
  in
  within "mean sink" (mean_sink_error fast);
  List.iteri (fun i (_, e) -> within (Printf.sprintf "routing %d objective" i) e) fast;
  let errs =
    List.map
      (fun n -> (n, mean_sink_error (errors ~tech cases (spice_with_steps n))))
      [ 40; 80; 160 ]
  in
  let rec pairs = function
    | (n, e) :: ((n', e') :: _ as rest) ->
        Alcotest.(check bool)
          (Printf.sprintf "mean error %d steps %.3g%% -> %d steps %.3g%%: >= 3x"
             n (100.0 *. e) n' (100.0 *. e'))
          true (e >= 3.0 *. e');
        pairs rest
    | _ -> ()
  in
  pairs errs

(* Convergence in π-segments: the seeded 10-pin MST's max delay with
   every wire lumped into 1, 2, 4, 8 and 16 π-segments, against the
   same routing with 64, all integrated with the accurate profile (2500
   steps) so the time discretisation stays well below the lumping
   error. Each doubling must lower the error. Measured: 2.82e-5,
   1.40e-5, 3.86e-6, 9.76e-7 and 2.34e-7 relative for 1, 2, 4, 8 and
   16 segments (the same to three digits at 20,000 steps), i.e. about
   4x per doubling from 2 segments on, as a second-order lumping
   should. At this net's wire lengths even one segment per wire is
   within 0.003 % of the refined delay. *)
let test_segment_convergence () =
  let tech, routings = convergence_routings () in
  let m = List.hd routings in
  let delay n =
    max_delay
      (Delay.Model.sink_delays
         (Delay.Model.Spice
            { Delay.Model.accurate_spice with
              Delay.Model.segmentation = Delay.Lumping.Fixed n })
         ~tech m)
  in
  let reference = delay 64 in
  let errs =
    List.map (fun n -> (n, rel (delay n) reference)) [ 1; 2; 4; 8; 16 ]
  in
  let rec falls = function
    | (n, e) :: ((n', e') :: _ as rest) ->
        Alcotest.(check bool)
          (Printf.sprintf
             "max-delay error %d segments %.3g%% > %d segments %.3g%%" n
             (100.0 *. e) n' (100.0 *. e'))
          true (e > e');
        falls rest
    | _ -> ()
  in
  falls errs

let suites =
  [ ( "reference",
      [ Alcotest.test_case "rc step t50 = RC ln 2, fast" `Quick
          (test_rc_step ("fast", Spice.Engine.fast_options));
        Alcotest.test_case "rc step t50 = RC ln 2, default" `Quick
          (test_rc_step ("default", Spice.Engine.default_options));
        Alcotest.test_case "rc step t50 = RC ln 2, accurate" `Quick
          (test_rc_step ("accurate", Spice.Engine.accurate_options));
        Alcotest.test_case "rc pulse t50 = RC ln 2, fast" `Quick
          (test_rc_pulse ("fast", Spice.Engine.fast_options));
        Alcotest.test_case "rc pulse t50 = RC ln 2, default" `Quick
          (test_rc_pulse ("default", Spice.Engine.default_options));
        Alcotest.test_case "rc pulse t50 = RC ln 2, accurate" `Quick
          (test_rc_pulse ("accurate", Spice.Engine.accurate_options));
        Alcotest.test_case "rc ladder first moment = Elmore sum" `Quick
          test_ladder_first_moment;
        Alcotest.test_case "π-segment convergence, 10-pin MST" `Quick
          test_segment_convergence;
        Alcotest.test_case "step-count convergence, 10-pin MST and trial"
          `Quick test_step_convergence ] ) ]
