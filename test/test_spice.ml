(* Tests validating the simulator against closed-form circuit theory. *)

open Circuit

let step01 = Waveform.Step { t0 = 0.0; v0 = 0.0; v1 = 1.0 }

(* A 1 kΩ / 1 pF low-pass: v(t) = 1 - exp(-t/RC), tau = 1 ns. *)
let rc_circuit () =
  let nl = Netlist.create () in
  let inp = Netlist.node nl "in" in
  let out = Netlist.node nl "out" in
  Netlist.vsource nl inp Netlist.ground step01;
  Netlist.resistor nl inp out 1e3;
  Netlist.capacitor nl out Netlist.ground 1e-12;
  nl

(* An analysis that must succeed. *)
let ok = function
  | Ok x -> x
  | Error e -> Alcotest.fail (Nontree_error.to_string e)

let threshold_delays ?options nl ~probes ~horizon =
  ok (Spice.Engine.threshold_delays_result ?options nl ~probes ~horizon)

(* A system's set-up: G factored once, its operating point and settled
   state. *)
let prepared sys = ok (Spice.Engine.prepare_result sys)

let test_dc_divider () =
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" in
  let b = Netlist.node nl "b" in
  Netlist.vsource nl a Netlist.ground (Waveform.Dc 10.0);
  Netlist.resistor nl a b 3e3;
  Netlist.resistor nl b Netlist.ground 7e3;
  let v = List.assoc "b" (ok (Spice.Engine.dc_result nl)) in
  Alcotest.(check (float 1e-9)) "divider" 7.0 v

let test_dc_current_source () =
  (* 1 mA into 2 kΩ gives 2 V. *)
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" in
  Netlist.isource nl Netlist.ground a (Waveform.Dc 1e-3);
  Netlist.resistor nl a Netlist.ground 2e3;
  let v = List.assoc "a" (ok (Spice.Engine.dc_result nl)) in
  Alcotest.(check (float 1e-9)) "IR" 2.0 v

let test_dc_inductor_short () =
  (* At DC an inductor is a short: the divider sees only R2. *)
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" in
  let b = Netlist.node nl "b" in
  Netlist.vsource nl a Netlist.ground (Waveform.Dc 4.0);
  Netlist.inductor nl a b 1e-9;
  Netlist.resistor nl b Netlist.ground 1e3;
  let v = List.assoc "b" (ok (Spice.Engine.dc_result nl)) in
  Alcotest.(check (float 1e-9)) "inductor shorts" 4.0 v

let check_against_analytic trace analytic tolerance label =
  let v = Spice.Trace.signal trace "out" in
  let worst = ref 0.0 in
  Array.iteri
    (fun i t ->
      let expected = analytic t in
      worst := Float.max !worst (abs_float (v.(i) -. expected)))
    trace.Spice.Trace.times;
  Alcotest.(check bool)
    (Printf.sprintf "%s (worst err %.2e)" label !worst)
    true (!worst < tolerance)

let test_rc_charging_trapezoidal () =
  let nl = rc_circuit () in
  let trace =
    ok @@ Spice.Engine.transient_result nl ~tstop:5e-9 ~probes:[ "out" ]
      ~options:Spice.Engine.accurate_options
  in
  (* An ideal step is discontinuous, so the integrator effectively sees
     it smeared over the first dt/2; the residual error is O(dt/tau). *)
  check_against_analytic trace
    (fun t -> 1.0 -. exp (-.t /. 1e-9))
    2.5e-3 "trapezoidal RC step"

(* RC response to a finite ramp is smooth, so both integrators converge
   at their theoretical orders. Closed form with tau = RC, rise Tr:
   t <= Tr:  v = (t - tau(1 - e^{-t/tau})) / Tr
   t >  Tr:  v = 1 - (tau/Tr)(1 - e^{-Tr/tau}) e^{-(t-Tr)/tau}. *)
let rc_ramp_circuit tr =
  let nl = Netlist.create () in
  let inp = Netlist.node nl "in" in
  let out = Netlist.node nl "out" in
  Netlist.vsource nl inp Netlist.ground
    (Waveform.Ramp { t0 = 0.0; t1 = tr; v0 = 0.0; v1 = 1.0 });
  Netlist.resistor nl inp out 1e3;
  Netlist.capacitor nl out Netlist.ground 1e-12;
  nl

let rc_ramp_analytic ~tau ~tr t =
  if t <= tr then (t -. (tau *. (1.0 -. exp (-.t /. tau)))) /. tr
  else
    1.0 -. (tau /. tr *. (1.0 -. exp (-.tr /. tau)) *. exp (-.(t -. tr) /. tau))

let test_rc_ramp_trapezoidal () =
  let tr = 0.5e-9 in
  let nl = rc_ramp_circuit tr in
  let trace =
    ok @@ Spice.Engine.transient_result nl ~tstop:5e-9 ~probes:[ "out" ]
      ~options:Spice.Engine.accurate_options
  in
  check_against_analytic trace
    (rc_ramp_analytic ~tau:1e-9 ~tr)
    1e-5 "trapezoidal RC ramp"

let test_rc_50_delay () =
  (* 50 % crossing of a first-order RC step is RC·ln 2 ≈ 0.693 ns. *)
  let nl = rc_circuit () in
  let delays =
    threshold_delays nl ~probes:[ "out" ] ~horizon:5e-9
      ~options:Spice.Engine.accurate_options
  in
  match delays with
  | [ ("out", Some t) ] ->
      Alcotest.(check bool)
        (Printf.sprintf "t50 = %.4g ns" (t *. 1e9))
        true
        (abs_float (t -. (1e-9 *. log 2.0)) < 5e-12)
  | _ -> Alcotest.fail "expected one crossing"

let test_horizon_extension () =
  (* Deliberately underestimate the horizon: tau = 1 ns but start the
     search window at 10 ps; the engine must extend until crossing. *)
  let nl = rc_circuit () in
  let delays = threshold_delays nl ~probes:[ "out" ] ~horizon:1e-11 in
  match delays with
  | [ ("out", Some t) ] ->
      Alcotest.(check bool) "extended past horizon" true (t > 1e-11);
      Alcotest.(check bool) "roughly ln2 ns" true
        (abs_float (t -. 0.693e-9) < 0.05e-9)
  | _ -> Alcotest.fail "expected crossing after extension"

(* Series RLC with L = 1 nH, C = 100 pF: characteristic impedance
   Z0 = sqrt(L/C) = 3.162 Ω, so R = 0.632 Ω gives zeta = R/(2·Z0) = 0.1
   — distinctly underdamped. A pure RC response cannot overshoot, so
   these two tests exercise the inductor stamps specifically. *)
let underdamped_rlc () =
  let nl = Netlist.create () in
  let inp = Netlist.node nl "in" in
  let mid = Netlist.node nl "mid" in
  let out = Netlist.node nl "out" in
  Netlist.vsource nl inp Netlist.ground step01;
  Netlist.resistor nl inp mid 0.6324555;
  Netlist.inductor nl mid out 1e-9;
  Netlist.capacitor nl out Netlist.ground 1e-10;
  nl

let test_rlc_underdamped () =
  let nl = underdamped_rlc () in
  let trace =
    ok @@ Spice.Engine.transient_result nl ~tstop:1e-8 ~probes:[ "out" ]
      ~options:Spice.Engine.accurate_options
  in
  let v = Spice.Trace.signal trace "out" in
  let overshoot = Spice.Measure.overshoot ~values:v ~vfinal:1.0 in
  (* Analytic peak overshoot = exp(-pi*zeta/sqrt(1-zeta^2)) ~ 0.729. *)
  Alcotest.(check bool)
    (Printf.sprintf "overshoot %.3f" overshoot)
    true
    (abs_float (overshoot -. 0.729) < 0.03)

let test_rlc_oscillation_period () =
  (* Damped ringing period 2π/(ω_n·sqrt(1−ζ²)) ≈ 1.996 ns: measure the
     spacing of the first two response peaks. *)
  let nl = underdamped_rlc () in
  let trace =
    ok @@ Spice.Engine.transient_result nl ~tstop:1e-8 ~probes:[ "out" ]
      ~options:Spice.Engine.accurate_options
  in
  let v = Spice.Trace.signal trace "out" in
  let times = trace.Spice.Trace.times in
  (* Find successive maxima by sign change of the discrete derivative. *)
  let peaks = ref [] in
  for i = 1 to Array.length v - 2 do
    if v.(i) > v.(i - 1) && v.(i) >= v.(i + 1) && v.(i) > 1.0 then
      peaks := times.(i) :: !peaks
  done;
  match List.rev !peaks with
  | t1 :: t2 :: _ ->
      let period = t2 -. t1 in
      let zeta = 0.1 in
      let expected =
        2.0 *. Float.pi *. sqrt (1e-9 *. 1e-10) /. sqrt (1.0 -. (zeta *. zeta))
      in
      Alcotest.(check bool)
        (Printf.sprintf "period %.3g vs %.3g" period expected)
        true
        (abs_float (period -. expected) < 0.05 *. expected)
  | _ -> Alcotest.fail "expected at least two ringing peaks"

let test_transient_continuation () =
  (* Running 2 x 2.5ns in chunks must equal one 5ns run at the chunk
     boundary (continuation passes exact state). *)
  let nl = rc_circuit () in
  let sys = Spice.Mna.build nl in
  let { Spice.Engine.x0; pattern; _ } = prepared sys in
  let probes = [| 1 |] in
  let dt = 5e-9 /. 1000.0 in
  let with_companion f =
    Result.get_ok (Spice.Transient.with_companion pattern ~dt f)
  in
  let full =
    with_companion (fun cp ->
        Spice.Transient.run cp ~x0 ~t0:0.0 ~steps:1000 ~probes)
  in
  let first, second =
    with_companion (fun cp ->
        let first = Spice.Transient.run cp ~x0 ~t0:0.0 ~steps:500 ~probes in
        ( first,
          Spice.Transient.run cp ~x0:first.Spice.Transient.final ~t0:2.5e-9
            ~steps:500 ~probes ))
  in
  let v_full = full.Spice.Transient.states.(0) in
  let v_cat =
    Array.append first.Spice.Transient.states.(0)
      second.Spice.Transient.states.(0)
  in
  let worst = ref 0.0 in
  Array.iteri
    (fun i x -> worst := Float.max !worst (abs_float (x -. v_cat.(i))))
    v_full;
  Alcotest.(check bool)
    (Printf.sprintf "chunked = full (err %.2e)" !worst)
    true (!worst < 1e-12)

(* A capacitor-only node has no DC path: G is singular. *)
let floating_node_circuit () =
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" in
  let b = Netlist.node nl "b" in
  Netlist.vsource nl a Netlist.ground (Waveform.Dc 1.0);
  Netlist.capacitor nl a b 1e-12;
  Netlist.capacitor nl b Netlist.ground 1e-12;
  nl

let test_floating_node_rejected () =
  let nl = floating_node_circuit () in
  match Spice.Engine.dc_result nl with
  | Error (Nontree_error.Singular_matrix _) -> ()
  | _ -> Alcotest.fail "expected Singular_matrix from dc_result"

(* The sparse kernel's refusal is final: no dense factorisation runs
   behind it. *)
let test_singular_runs_no_dense_factorization () =
  let singular = Obs.Counter.make "sparse.singular" in
  let dense = Obs.Counter.make "lu.factorizations" in
  let s0 = Obs.Counter.value singular and d0 = Obs.Counter.value dense in
  (match Spice.Engine.dc_result (floating_node_circuit ()) with
  | Error (Nontree_error.Singular_matrix _) -> ()
  | _ -> Alcotest.fail "expected Singular_matrix from dc_result");
  Alcotest.(check bool) "sparse.singular rises" true
    (Obs.Counter.value singular > s0);
  Alcotest.(check int) "lu.factorizations unchanged" d0
    (Obs.Counter.value dense)

let test_engine_argument_validation () =
  let nl = rc_circuit () in
  Alcotest.check_raises "bad tstop"
    (Invalid_argument "Engine.transient_result: tstop must be positive")
    (fun () ->
      ignore (Spice.Engine.transient_result nl ~tstop:0.0 ~probes:[ "out" ]));
  Alcotest.check_raises "unknown probe"
    (Invalid_argument "Engine: unknown probe node nope") (fun () ->
      ignore (Spice.Engine.transient_result nl ~tstop:1e-9 ~probes:[ "nope" ]));
  Alcotest.check_raises "ground probe"
    (Invalid_argument "Engine: cannot probe ground") (fun () ->
      ignore (Spice.Engine.transient_result nl ~tstop:1e-9 ~probes:[ "0" ]));
  Alcotest.check_raises "bad horizon"
    (Invalid_argument "Engine.threshold_scan_result: horizon must be positive")
    (fun () ->
      ignore
        (Spice.Engine.threshold_delays_result nl ~probes:[ "out" ] ~horizon:0.0))

let test_max_delay_failure_path () =
  (* tau = 1 s but the search window tops out after two doublings of a
     1 ns horizon: the threshold is unreachable, and the probe must
     report no crossing rather than a garbage delay. *)
  let nl = Netlist.create () in
  let inp = Netlist.node nl "in" in
  let out = Netlist.node nl "out" in
  Netlist.vsource nl inp Netlist.ground step01;
  Netlist.resistor nl inp out 1e3;
  Netlist.capacitor nl out Netlist.ground 1e-3;
  let options = { Spice.Engine.fast_options with max_extensions = 2 } in
  match
    Spice.Engine.threshold_delays_result ~options nl ~probes:[ "out" ]
      ~horizon:1e-9
  with
  | Ok [ ("out", None) ] -> ()
  | _ -> Alcotest.fail "expected the unreachable probe to report None"

let test_threshold_already_settled () =
  (* A DC source: every node is at its final value from t=0, so the
     threshold is crossed at time zero by convention. *)
  let nl = Netlist.create () in
  let inp = Netlist.node nl "in" in
  let out = Netlist.node nl "out" in
  Netlist.vsource nl inp Netlist.ground (Waveform.Dc 1.0);
  Netlist.resistor nl inp out 1e3;
  Netlist.capacitor nl out Netlist.ground 1e-12;
  match threshold_delays nl ~probes:[ "out" ] ~horizon:1e-9 with
  | [ (_, Some t) ] -> Alcotest.(check (float 0.0)) "zero delay" 0.0 t
  | _ -> Alcotest.fail "expected an immediate crossing"

(* Where the solver's input crosses 50 %: the trapezoidal rule sees a
   step as a one-step ramp, and a Ramp through its grid samples, the
   same ramp when it rises within one step. *)
let test_input_reference () =
  let dt = 1e-11 in
  let reference wave =
    let nl = Netlist.create () in
    let inp = Netlist.node nl "in" in
    Netlist.vsource nl inp Netlist.ground wave;
    Netlist.resistor nl inp Netlist.ground 1e3;
    Spice.Engine.input_reference (Spice.Mna.build nl) ~dt
  in
  Alcotest.(check (float 0.0)) "trapezoidal, step at 0" (dt /. 2.0)
    (reference step01);
  Alcotest.(check (float 1e-24)) "trapezoidal, step between grid times"
    (2.5 *. dt)
    (reference (Waveform.Step { t0 = 2.5 *. dt; v0 = 0.0; v1 = 1.0 }));
  Alcotest.(check (float 0.0)) "ramp: its grid 50% crossing" (dt /. 2.0)
    (reference (Waveform.Ramp { t0 = 0.0; t1 = dt; v0 = 0.0; v1 = 1.0 }))

(* What [spice_run --delay] reports as its time origin: the input's
   grid-adjusted 50 % point — half a trapezoidal step of the scan for a
   step or a PULSE that rises within one step, the sampled edge's own
   crossing for one that rises over several, a PWL or RAMP likewise —
   and t = 0 for a falling drive. *)
let test_delay_origin () =
  let deck source =
    match
      Circuit.Deck.of_string
        (Printf.sprintf "* rc\nV1 in 0 %s\nR1 in out 1k\nC1 out 0 1p\n.end\n"
           source)
    with
    | Ok nl -> nl
    | Error e -> Alcotest.fail e
  in
  let horizon = 10e-9 in
  let origin source = Spice.Engine.delay_origin (deck source) ~horizon in
  let dt =
    horizon
    /. float_of_int Spice.Engine.default_options.Spice.Engine.steps_per_chunk
  in
  Alcotest.(check (option (float 0.0))) "PULSE within one step: dt/2"
    (Some (dt /. 2.0))
    (origin "PULSE(0 1 0 0.01n 0.01n 50n 100n)");
  Alcotest.(check (option (float 1e-21))) "PULSE over several steps"
    (Some 1.05e-9)
    (origin "PULSE(0 1 1n 0.1n 0.1n 50n 100n)");
  Alcotest.(check (option (float 1e-21))) "PWL over several steps"
    (Some 1.05e-9)
    (origin "PWL(0 0 1n 0 1.1n 1)");
  Alcotest.(check (option (float 0.0))) "falling PULSE: t = 0" None
    (origin "PULSE(1 0 0 0.01n 0.01n 50n 100n)");
  Alcotest.(check (option (float 1e-21))) "RAMP over several steps"
    (Some 1.05e-9)
    (origin "RAMP(1n 1.1n 0 1)");
  Alcotest.(check (option (float 0.0))) "falling RAMP: t = 0" None
    (origin "RAMP(0 1n 1 0)");
  Alcotest.(check (option (float 0.0))) "one step: grid-adjusted 50 % point"
    (Some (dt /. 2.0))
    (origin "STEP(0 0 1)")

(* A periodic PULSE settles at its first plateau: the deck of
   test/golden/spice_pulse.cir with a 50 ns pulse every 100 ns reads the
   golden's delay, bit for bit that of the golden's 1 s pulse, instead
   of a target taken wherever the period lands 10⁶ horizons out. *)
let test_pulse_settles_at_plateau () =
  let delay source =
    let nl =
      match
        Circuit.Deck.of_string
          (Printf.sprintf
             "* rc\nV1 in 0 %s\nR1 in out 1k\nC1 out 0 1p\n.end\n" source)
      with
      | Ok nl -> nl
      | Error e -> Alcotest.fail e
    in
    match threshold_delays nl ~probes:[ "out" ] ~horizon:10e-9 with
    | [ (_, Some t) ] -> t
    | _ -> Alcotest.fail "expected one crossing"
  in
  let periodic = delay "PULSE(0 1 0 0.01n 0.01n 50n 100n)" in
  Alcotest.(check string) "the golden's 0.6932 ns" "0.6932"
    (Printf.sprintf "%.4g" (periodic *. 1e9));
  Alcotest.(check (float 0.0)) "same as the golden's long pulse"
    (delay "PULSE(0 1 0 0.01n 0.01n 1 2)") periodic

(* The always-live step counter sees a fast-profile query on an RC net
   stop at its crossing: it counts exactly the steps up to the one at
   which an untruncated run of the same companion first reaches the
   50 % target, not the whole 80-step chunk. *)
let test_steps_counter () =
  let options = Spice.Engine.fast_options and horizon = 4e-9 in
  let nl = rc_circuit () in
  let sys = Spice.Mna.build nl in
  let out =
    match Netlist.find_node nl "out" with
    | Some node -> sys.Spice.Mna.unknown_of_node.(node)
    | None -> Alcotest.fail "no node out"
  in
  let { Spice.Engine.x0; xf; pattern; _ } = prepared sys in
  let target = x0.(out) +. (0.5 *. (xf.(out) -. x0.(out))) in
  let steps_per_chunk = options.Spice.Engine.steps_per_chunk in
  let full =
    Result.get_ok
      (Spice.Transient.with_companion pattern
         ~dt:(horizon /. float_of_int steps_per_chunk) (fun cp ->
           Spice.Transient.run cp ~x0 ~t0:0.0 ~steps:steps_per_chunk
             ~probes:[| out |]))
  in
  let col = full.Spice.Transient.states.(0) in
  let rec crossing_step s =
    if s >= steps_per_chunk then Alcotest.fail "no crossing in the chunk"
    else if col.(s) >= target then s + 1
    else crossing_step (s + 1)
  in
  let expected = crossing_step 0 in
  let steps = Obs.Counter.make "spice.steps" in
  let before = Obs.Counter.value steps in
  (match threshold_delays ~options nl ~probes:[ "out" ] ~horizon with
  | [ (_, Some _) ] -> ()
  | _ -> Alcotest.fail "expected one crossing");
  Alcotest.(check bool) "crosses before the chunk ends" true
    (expected < steps_per_chunk);
  Alcotest.(check int) "spice.steps added" expected
    (Obs.Counter.value steps - before)

(* A loop stopped early is an exact prefix of [run]'s chunk: the
   callback sees the same times and states, in order, the stopped
   loop returns the stop step's full state, and only its steps are
   counted. *)
let test_stopped_loop_prefix () =
  let sys = Spice.Mna.build (rc_circuit ()) in
  let { Spice.Engine.x0; pattern; _ } = prepared sys in
  let probes = Array.init sys.Spice.Mna.size Fun.id in
  let with_companion f =
    Result.get_ok (Spice.Transient.with_companion pattern ~dt:5e-11 f)
  in
  let full =
    with_companion (fun cp ->
        Spice.Transient.run cp ~x0 ~t0:1e-9 ~steps:80 ~probes)
  in
  let stop = 23 in
  let seen = ref [] in
  let steps = Obs.Counter.make "spice.steps" in
  let before = Obs.Counter.value steps in
  let final, taken =
    with_companion (fun cp ->
        Spice.Transient.loop cp ~x0 ~t0:1e-9 ~steps:80 ~probes
          ~on_step:(fun t x ->
            seen := (t, Array.copy x) :: !seen;
            List.length !seen = stop))
  in
  let seen = Array.of_list (List.rev !seen) in
  Alcotest.(check int) "steps taken" stop taken;
  Alcotest.(check int) "steps counted" stop (Obs.Counter.value steps - before);
  Alcotest.(check bool) "times are a prefix" true
    (Array.map fst seen = Array.sub full.Spice.Transient.times 0 stop);
  Alcotest.(check bool) "states are a prefix" true
    (Array.init (Array.length probes) (fun p ->
         Array.map (fun (_, x) -> x.(p)) seen)
    = Array.map (fun col -> Array.sub col 0 stop) full.Spice.Transient.states);
  Alcotest.(check bool) "final is the stop step's state" true
    (final = Array.map (fun col -> col.(stop - 1)) full.Spice.Transient.states)

(* Measure ------------------------------------------------------------ *)

let test_first_crossing_interpolates () =
  let times = [| 0.0; 1.0; 2.0 |] and values = [| 0.0; 0.4; 0.8 |] in
  match Spice.Measure.first_crossing ~times ~values ~level:0.6 with
  | Some t -> Alcotest.(check (float 1e-12)) "interp" 1.5 t
  | None -> Alcotest.fail "expected crossing"

let test_first_crossing_none () =
  let times = [| 0.0; 1.0 |] and values = [| 0.0; 0.3 |] in
  Alcotest.(check bool) "no crossing" true
    (Spice.Measure.first_crossing ~times ~values ~level:0.5 = None)

let test_first_crossing_exact_sample () =
  let times = [| 0.0; 1.0; 2.0 |] and values = [| 0.0; 0.5; 1.0 |] in
  match Spice.Measure.first_crossing ~times ~values ~level:0.5 with
  | Some t -> Alcotest.(check (float 0.0)) "exact" 1.0 t
  | None -> Alcotest.fail "expected crossing"

let test_rise_time () =
  (* Linear ramp 0..1 over [0,1]: 10-90 rise time is 0.8. *)
  let n = 101 in
  let times = Array.init n (fun i -> float_of_int i /. 100.0) in
  let values = Array.copy times in
  match Spice.Measure.rise_time ~times ~values ~vfinal:1.0 with
  | Some rt -> Alcotest.(check (float 1e-9)) "rise" 0.8 rt
  | None -> Alcotest.fail "expected rise time"

(* Trace -------------------------------------------------------------- *)

let test_trace_csv_and_append () =
  let t1 =
    { Spice.Trace.times = [| 0.0; 1.0 |]; names = [| "a" |];
      data = [| [| 0.1; 0.2 |] |] }
  in
  let t2 =
    { Spice.Trace.times = [| 2.0 |]; names = [| "a" |]; data = [| [| 0.3 |] |] }
  in
  let t = Spice.Trace.append t1 t2 in
  Alcotest.(check int) "length" 3 (Spice.Trace.length t);
  let csv = Spice.Trace.to_csv t in
  Alcotest.(check bool) "header" true
    (String.length csv > 7 && String.sub csv 0 7 = "time,a\n");
  let mismatched =
    { Spice.Trace.times = [| 0.0 |]; names = [| "b" |]; data = [| [| 0.0 |] |] }
  in
  Alcotest.check_raises "probe mismatch"
    (Invalid_argument "Trace.append: probe mismatch") (fun () ->
      ignore (Spice.Trace.append t1 mismatched))

(* Companion assembly ------------------------------------------------ *)

(* The dense reference of [Transient.assemble]: the base G and C
   embedded in the grown size, the stamps added in order, then G + hC
   and the explicit side 2hC formed densely.
   The sparse pair must equal it entry for entry, bit for bit, and
   store exactly its nonzeros. *)
let check_assembly ?stamps ~what sys =
  let n = sys.Spice.Mna.size in
  let added, g_stamps, c_stamps =
    match stamps with
    | None -> (0, [||], [||])
    | Some st -> Spice.Transient.(st.added, st.g, st.c)
  in
  let nt = n + added in
  let grown csc st =
    let base = Matrix.of_csc csc in
    let m = Matrix.create nt nt in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        Matrix.set m i j (Matrix.get base i j)
      done
    done;
    Array.iter
      (fun { Spice.Transient.i; j; value } ->
        if i >= 0 then Matrix.add_to m i i value;
        if j >= 0 then Matrix.add_to m j j value;
        if i >= 0 && j >= 0 then begin
          Matrix.add_to m i j (-.value);
          Matrix.add_to m j i (-.value)
        end)
      st;
    m
  in
  let gd = grown sys.Spice.Mna.g_csc g_stamps
  and cd = grown sys.Spice.Mna.c_csc c_stamps in
  let dt = 1.7e-11 in
  let check label sparse dense =
    Alcotest.(check bool) (what ^ ", " ^ label ^ ": same entries") true
      (Matrix.to_arrays (Matrix.of_csc sparse) = Matrix.to_arrays dense);
    Alcotest.(check int) (what ^ ", " ^ label ^ ": nonzeros only")
      (Numeric.Sparse.Csc.nnz (Matrix.to_csc dense))
      (Numeric.Sparse.Csc.nnz sparse)
  in
  let lhs, explicit =
    Spice.Transient.assemble ?stamps (prepared sys).Spice.Engine.pattern ~dt
  in
  let h = 2.0 /. dt in
  check "trapezoidal g + hc" lhs (Matrix.add gd (Matrix.scale h cd));
  check "trapezoidal 2hc" explicit (Matrix.scale (2.0 *. h) cd);
  (gd, cd)

(* Without stamps: a voltage source (G-only entries, a zero branch
   diagonal), a floating capacitor (C-only off-diagonal entries) and
   an inductor (a C-only branch diagonal) next to entries stored in
   both. *)
let test_companion_plain_matches_dense () =
  let nl = Netlist.create () in
  let inp = Netlist.node nl "in" in
  let a = Netlist.node nl "a" in
  let b = Netlist.node nl "b" in
  Netlist.vsource nl inp Netlist.ground step01;
  Netlist.resistor nl inp a 1e3;
  Netlist.capacitor nl a b 3e-13;
  Netlist.inductor nl a b 1e-9;
  Netlist.resistor nl b Netlist.ground 2e3;
  Netlist.capacitor nl b Netlist.ground 1e-12;
  ignore (check_assembly ~what:"no stamps" (Spice.Mna.build nl))

(* A chain of resistors with a grounded capacitor at every node and a
   load at its end: the base a resize edits. *)
let chain_circuit () =
  let nl = Netlist.create () in
  let inp = Netlist.node nl "in" in
  Netlist.vsource nl inp Netlist.ground step01;
  let nodes =
    Array.init 4 (fun k -> Netlist.node nl (Printf.sprintf "c%d" k))
  in
  Netlist.resistor nl inp nodes.(0) 1e2;
  for k = 0 to 2 do
    Netlist.resistor nl nodes.(k) nodes.(k + 1) 1e3;
    Netlist.capacitor nl nodes.(k) Netlist.ground 1e-13
  done;
  Netlist.capacitor nl nodes.(3) Netlist.ground 1e-12;
  Netlist.resistor nl nodes.(3) Netlist.ground 3e3;
  let sys = Spice.Mna.build nl in
  (sys, Array.map (fun node -> sys.Spice.Mna.unknown_of_node.(node)) nodes)

(* The stamps of a wire's π-chain, as the incremental scorer builds
   them. *)
let chain_stamps ~added chain ~seg_g ~seg_c =
  let n_seg = Array.length chain - 1 in
  {
    Spice.Transient.added;
    g =
      Array.init n_seg (fun s ->
          { Spice.Transient.i = chain.(s); j = chain.(s + 1); value = seg_g });
    c =
      Array.init (2 * n_seg) (fun k ->
          { Spice.Transient.i = chain.((k / 2) + (k mod 2)); j = -1;
            value = seg_c /. 2.0 });
  }

(* An added 3-segment wire between two existing unknowns, its two
   interior nodes appended after the base unknowns. *)
let test_companion_add_matches_dense () =
  let sys, nodes = chain_circuit () in
  let n = sys.Spice.Mna.size in
  let iu = nodes.(0) and iv = nodes.(3) in
  let n_seg = 3 and seg_g = 1.5e-3 and seg_c = 2e-12 in
  let chain = [| iu; n; n + 1; iv |] in
  let stamps = chain_stamps ~added:(n_seg - 1) chain ~seg_g ~seg_c in
  let gd, _ = check_assembly ~stamps ~what:"add" sys in
  (* At DC the chain is one series conductance seg_g/n_seg: a dense
     solve of the grown G puts its interior nodes evenly between its
     ends, and agrees on every base unknown with the base G plus that
     one conductance. *)
  let b = Array.make (n + n_seg - 1) 0.0 in
  Spice.Mna.rhs_into sys 0.5 b;
  Alcotest.(check (float 0.0)) "rhs interior is zero" 0.0 b.(n);
  let x = Lu.solve_matrix gd b in
  let xu = x.(iu) and xv = x.(iv) in
  Alcotest.(check bool) "ends differ" true (abs_float (xu -. xv) > 1e-3);
  for s = 1 to n_seg - 1 do
    Alcotest.(check (float 1e-12))
      (Printf.sprintf "interior node %d interpolates" s)
      (xu +. ((xv -. xu) *. float_of_int s /. float_of_int n_seg))
      x.(chain.(s))
  done;
  let g_lu = (prepared sys).Spice.Engine.g_lu in
  let z = Array.make n 0.0 in
  let s =
    Numeric.Sparse.with_conductance ~work:(Array.make n 0.0) ~z g_lu iu iv
      (seg_g /. float_of_int n_seg)
  in
  if Float.is_nan s then Alcotest.fail "series conductance update refused";
  let xs = Numeric.Sparse.solve g_lu (Spice.Mna.rhs sys 0.5) in
  Numeric.Sparse.apply_conductance ~z iu iv s xs;
  Alcotest.(check (float 1e-12)) "base unknowns agree" 0.0
    (Matrix.max_abs_diff xs (Array.sub x 0 n))

(* A resize restamps an existing chain with the change in its values,
   here a narrowing (negative changes); a change that cancels a base
   conductance exactly must drop those entries. *)
let test_companion_resize_matches_dense () =
  let sys, nodes = chain_circuit () in
  ignore
    (check_assembly ~what:"resize"
       ~stamps:(chain_stamps ~added:0 nodes ~seg_g:(-0.4e-3) ~seg_c:(-5e-14))
       sys);
  (* Three stamps at one position, whose sum depends on its order. *)
  let ordered =
    {
      Spice.Transient.added = 0;
      g =
        Array.map
          (fun value -> { Spice.Transient.i = nodes.(1); j = nodes.(2); value })
          [| 0.1; 0.2; 0.3 |];
      c = [||];
    }
  in
  ignore (check_assembly ~what:"ordered resize" ~stamps:ordered sys);
  let cancel =
    {
      Spice.Transient.added = 0;
      g = [| { Spice.Transient.i = nodes.(0); j = nodes.(1); value = -1e-3 } |];
      c = [||];
    }
  in
  let gd, _ = check_assembly ~what:"cancelling resize" ~stamps:cancel sys in
  Alcotest.(check bool) "the coupling cancels exactly" true
    (Matrix.get gd nodes.(0) nodes.(1) = 0.0)

(* One ordering per system: wherever C is diagonal, as on every lowered
   routing, the G∪C order is G's own. *)
let test_single_order_is_g_order () =
  let tech = Circuit.Technology.table1 in
  List.iter
    (fun pins ->
      let nets =
        Geom.Netgen.uniform_batch ~seed:(4242 + pins)
          ~region:(Geom.Rect.square tech.Circuit.Technology.layout_side)
          ~pins ~trials:2
      in
      Array.iter
        (fun net ->
          let nl, _ =
            Delay.Lumping.circuit_of_routing ~tech (Routing.mst_of_net net)
          in
          let sys = Spice.Mna.build nl in
          Alcotest.(check (array int))
            (Printf.sprintf "%d pins: G∪C order = G order" pins)
            (Numeric.Sparse.Symbolic.order
               (Numeric.Sparse.analyze sys.Spice.Mna.g_csc))
            (Numeric.Sparse.Symbolic.order sys.Spice.Mna.sym))
        nets)
    [ 10; 30 ]

(* When C adds slots to G the pattern keeps no plan, since G's plan
   reads G's slot positions: an RLC lowering, whose inductors put C on
   branch diagonals G does not store, and a deck with a node-to-node
   capacitor. Their set-up builds no plan (no [sparse.plans]), where
   the RC lowering of the same net builds one, and their companions
   factor with the full kernel, bit for bit [try_factor] on the
   assembled iteration matrix. *)
let test_no_plan_when_c_adds_slots () =
  let tech = Circuit.Technology.table1 in
  let net =
    (Geom.Netgen.uniform_batch ~seed:4252
       ~region:(Geom.Rect.square tech.Circuit.Technology.layout_side)
       ~pins:10 ~trials:1).(0)
  in
  let rlc =
    Delay.Lumping.system ~include_inductance:true ~tech
      (Routing.mst_of_net net)
  in
  let deck =
    match
      Deck.of_string
        "* node-to-node capacitor\n\
         V1 in 0 PULSE(0 1 0 0.01n 0.01n 50n 100n)\n\
         R1 in a 1k\n\
         C1 a b 0.3p\n\
         R2 b 0 2k\n\
         C2 b 0 1p\n\
         .end\n"
    with
    | Ok nl -> Spice.Mna.build nl
    | Error e -> Alcotest.fail e
  in
  let plans sys =
    snd
      (Test_numeric.counting [ "sparse.plans" ] (fun () ->
           ignore (prepared sys)))
  in
  Alcotest.(check (list int)) "rc lowering: one plan" [ 1 ]
    (plans (Delay.Lumping.system ~tech (Routing.mst_of_net net)).Delay.Lumping.mna);
  List.iter
    (fun (what, sys) ->
      Alcotest.(check (list int)) (what ^ ": no plan built") [ 0 ] (plans sys);
      let pattern = (prepared sys).Spice.Engine.pattern in
      let dt = 1e-11 in
      let lhs, _ = Spice.Transient.assemble pattern ~dt in
      let full = Numeric.Sparse.try_factor ~symbolic:sys.Spice.Mna.sym lhs in
      let same, counts =
        Test_numeric.counting Test_numeric.refactor_counters (fun () ->
            Spice.Transient.with_companion pattern ~dt (fun cp ->
                match full with
                | Ok f -> Test_numeric.same_factors f (Spice.Transient.factor cp)
                | Error _ -> false))
      in
      Alcotest.(check (list int)) (what ^ ": no refactor, no fallback")
        [ 0; 0; 0 ] counts;
      match same with
      | Ok same ->
          Alcotest.(check bool) (what ^ ": the full kernel's factor") true same
      | Error _ -> Alcotest.failf "%s: a factorisation failed" what)
    [ ("rlc lowering", rlc.Delay.Lumping.mna);
      ("node-to-node capacitor", deck) ]

let suites =
  [ ( "spice",
      [ Alcotest.test_case "dc divider" `Quick test_dc_divider;
        Alcotest.test_case "dc current source" `Quick test_dc_current_source;
        Alcotest.test_case "dc inductor short" `Quick test_dc_inductor_short;
        Alcotest.test_case "rc charging (trap)" `Quick
          test_rc_charging_trapezoidal;
        Alcotest.test_case "rc ramp (trap)" `Quick test_rc_ramp_trapezoidal;
        Alcotest.test_case "rc 50% delay = RC ln2" `Quick test_rc_50_delay;
        Alcotest.test_case "horizon extension" `Quick test_horizon_extension;
        Alcotest.test_case "rlc overshoot" `Quick test_rlc_underdamped;
        Alcotest.test_case "rlc ringing period" `Quick
          test_rlc_oscillation_period;
        Alcotest.test_case "transient continuation" `Quick
          test_transient_continuation;
        Alcotest.test_case "floating node rejected" `Quick
          test_floating_node_rejected;
        Alcotest.test_case "singular system runs no dense LU" `Quick
          test_singular_runs_no_dense_factorization;
        Alcotest.test_case "engine validation" `Quick
          test_engine_argument_validation;
        Alcotest.test_case "max_delay failure path" `Quick
          test_max_delay_failure_path;
        Alcotest.test_case "threshold already settled" `Quick
          test_threshold_already_settled;
        Alcotest.test_case "input 50% reference" `Quick test_input_reference;
        Alcotest.test_case "delay origin of a PULSE deck" `Quick test_delay_origin;
        Alcotest.test_case "PULSE settles at its first plateau" `Quick
          test_pulse_settles_at_plateau;
        Alcotest.test_case "spice.steps counts one fast query" `Quick
          test_steps_counter;
        Alcotest.test_case "stopped loop is a prefix of run" `Quick
          test_stopped_loop_prefix;
        Alcotest.test_case "crossing interpolates" `Quick
          test_first_crossing_interpolates;
        Alcotest.test_case "crossing none" `Quick test_first_crossing_none;
        Alcotest.test_case "crossing exact sample" `Quick
          test_first_crossing_exact_sample;
        Alcotest.test_case "plain companion matches dense" `Quick
          test_companion_plain_matches_dense;
        Alcotest.test_case "added-wire companion matches dense" `Quick
          test_companion_add_matches_dense;
        Alcotest.test_case "resized-wire companion matches dense" `Quick
          test_companion_resize_matches_dense;
        Alcotest.test_case "one ordering serves G and companion" `Quick
          test_single_order_is_g_order;
        Alcotest.test_case "no plan when C adds slots to G" `Quick
          test_no_plan_when_c_adds_slots;
        Alcotest.test_case "rise time" `Quick test_rise_time;
        Alcotest.test_case "trace csv/append" `Quick test_trace_csv_and_append
      ] ) ]
