type options = { steps_per_chunk : int; max_extensions : int }

let default_options = { steps_per_chunk = 600; max_extensions = 12 }

let fast_options = { default_options with steps_per_chunk = 80 }
let accurate_options = { default_options with steps_per_chunk = 2500 }

(* Operational failures (singular stamps, waveform blow-ups, probes
   that never settle) travel as [Nontree_error.t] results so the
   robustness layer can retry or degrade; argument-shape errors remain
   Invalid_argument. *)

let check_finite ~stage arr =
  let n = Array.length arr in
  let rec go i =
    if i >= n then Ok ()
    else if Float.is_finite (Array.unsafe_get arr i) then go (i + 1)
    else Error (Nontree_error.Non_finite { stage; value = arr.(i) })
  in
  go 0

(* Fault injection: the oracle stack's test harness asks this layer to
   fail on purpose; see lib/fault. Drawn once per threshold query. *)
let injected_fault ~horizon =
  match Fault.draw ~stage:"spice" with
  | None -> Ok ()
  | Some Fault.Singular_stamp ->
      Error (Nontree_error.Singular_matrix { stage = "spice.injected"; column = 0 })
  | Some Fault.Nan_value ->
      Error (Nontree_error.Non_finite { stage = "spice.injected"; value = Float.nan })
  | Some Fault.Never_settles ->
      Error (Nontree_error.Probe_never_settled { probe = "(injected)"; horizon })

let ( let* ) = Result.bind

type prepared = {
  pattern : Transient.pattern;
  g_lu : Numeric.Sparse.t;
  x0 : float array;
  xf : float array;
  cap : float array;
  m1 : float array;
}

let prepare_result (sys : Mna.t) =
  let pattern = Transient.compile sys in
  let symbolic = sys.Mna.sym and g = sys.Mna.g_csc in
  (* G's plan serves the companions only when C adds no slot to G; a
     system where it does factors G without building one. *)
  match
    if Transient.plannable pattern then
      Result.map
        (fun (g_lu, plan) -> (g_lu, Transient.with_plan pattern plan))
        (Numeric.Sparse.try_factor_with_plan ~symbolic g)
    else
      Result.map (fun g_lu -> (g_lu, pattern))
        (Numeric.Sparse.try_factor ~symbolic g)
  with
  | Error k -> Error (Nontree_error.singular ~stage:"spice.dc" k)
  | Ok (g_lu, pattern) ->
      (* One factorisation of G serves the operating point and the
         settled state; its plan, when kept, is the one every companion
         of the system refactors on. *)
      let x0 = Numeric.Sparse.solve g_lu (Mna.rhs sys 0.0) in
      let* () = check_finite ~stage:"spice.dc" x0 in
      let xf = Numeric.Sparse.solve g_lu (Mna.settled_rhs sys) in
      let* () = check_finite ~stage:"spice.settle" xf in
      (* C's row sums on the node unknowns, zero on the branch rows (the
         sources', the inductors'). Not yet shared, so the
         factorisation's own scratch is safe here. *)
      let n = sys.Mna.size and nodes = sys.Mna.num_node_unknowns in
      let cap = Array.make n 0.0 in
      Numeric.Sparse.Csc.mul_vec_into sys.Mna.c_csc (Array.make n 1.0) cap;
      Array.fill cap nodes (n - nodes) 0.0;
      Ok { pattern; g_lu; x0; xf; cap; m1 = Numeric.Sparse.solve g_lu cap }

let dc_result nl =
  let sys = Mna.build nl in
  let* p = prepare_result sys in
  Ok
    (List.init
       (Circuit.Netlist.num_nodes nl - 1)
       (fun i ->
         (Circuit.Netlist.node_name nl (i + 1), Mna.voltage sys p.x0 (i + 1))))

let probe_indices nl (sys : Mna.t) probes =
  List.map
    (fun name ->
      match Circuit.Netlist.find_node nl name with
      | None -> invalid_arg ("Engine: unknown probe node " ^ name)
      | Some node ->
          let u = sys.Mna.unknown_of_node.(node) in
          if u < 0 then invalid_arg "Engine: cannot probe ground";
          u)
    probes
  |> Array.of_list

let transient_result ?(options = default_options) nl ~tstop ~probes =
  if tstop <= 0.0 then
    invalid_arg "Engine.transient_result: tstop must be positive";
  let sys = Mna.build nl in
  let idx = probe_indices nl sys probes in
  let* p = prepare_result sys in
  let dt = tstop /. float_of_int options.steps_per_chunk in
  match
    Transient.with_companion p.pattern ~dt (fun cp ->
        Transient.run cp ~x0:p.x0 ~t0:0.0 ~steps:options.steps_per_chunk
          ~probes:idx)
  with
  | Error k -> Error (Nontree_error.singular ~stage:"spice.transient" k)
  | Ok chunk ->
      let* () = check_finite ~stage:"spice.transient" chunk.Transient.final in
      (* Prepend the t=0 operating point so traces start at time zero. *)
      let times = Array.append [| 0.0 |] chunk.Transient.times in
      let data =
        Array.mapi
          (fun q col -> Array.append [| p.x0.(idx.(q)) |] col)
          chunk.Transient.states
      in
      Ok { Trace.times; names = Array.of_list probes; data }

(* On the solver grid t_n = n·dt a Step switching at t0 still reads v0
   at the last grid time m·dt <= t0 and v1 from the next one on. The
   trapezoidal rule averages b(t_n) and b(t_n+1), so it integrates the
   step as a ramp over that one step, whose 50 % point is m·dt + dt/2. *)
let step_reference ~t0 ~dt =
  let switch = Float.of_int (int_of_float (t0 /. dt)) *. dt in
  switch +. (dt /. 2.0)

(* The first time a rising RAMP, PULSE or PWL reaches [level] (its
   value at t = 0 is below it). *)
let first_crossing wave ~level =
  match wave with
  | Circuit.Waveform.Ramp { t0; t1; v0; v1 } ->
      Some (t0 +. ((level -. v0) /. (v1 -. v0) *. (t1 -. t0)))
  | Circuit.Waveform.Pulse { delay; rise; _ } -> Some (delay +. (rise /. 2.0))
  | Circuit.Waveform.Pwl corners ->
      (* From the last corner at or before t = 0 (the line through
         (0, value at 0) before the first later one) onward. *)
      let rec walk (ta, va) = function
        | (tb, vb) :: rest when tb <= 0.0 -> walk (tb, vb) rest
        | _ when va >= level -> Some (Float.max ta 0.0)
        | [] -> None
        | (tb, vb) :: rest ->
            if vb >= level then
              Some (ta +. ((level -. va) /. (vb -. va) *. (tb -. ta)))
            else walk (tb, vb) rest
      in
      walk (0.0, Circuit.Waveform.value wave 0.0) corners
  | _ -> None

(* The solver sees a RAMP, PULSE or PWL through its samples b(t_n), joined
   linearly by the trapezoidal rule, as it sees a Step: the input's 50 %
   point is where that polyline first crosses halfway from the value at
   t = 0 to the settled one, between the last sample below and the
   first at or above it — a sample or two after the waveform's own
   crossing. [None] for a falling or flat drive, or one whose edge the
   grid steps over (back below 50 % by the next samples). *)
let grid_reference wave ~dt =
  let value n = Circuit.Waveform.value wave (Float.of_int n *. dt) in
  let v_start = value 0 in
  let v_end = Circuit.Waveform.settled wave in
  if not (v_end > v_start) then None
  else
    let level = v_start +. (0.5 *. (v_end -. v_start)) in
    Option.bind (first_crossing wave ~level) (fun tc ->
        (* Samples before the waveform's own crossing are below the
           level; back off a sample where rounding put one past it. *)
        let n = ref (Int.max 1 (int_of_float (tc /. dt))) in
        while !n > 1 && value (!n - 1) >= level do
          decr n
        done;
        let rec first n tries =
          if tries = 0 then None
          else if value n >= level then Some n
          else first (n + 1) (tries - 1)
        in
        Option.map
          (fun n ->
            let v0 = value (n - 1) and v1 = value n in
            (Float.of_int (n - 1) *. dt) +. ((level -. v0) /. (v1 -. v0) *. dt))
          (first !n 3))

(* Where delays are measured from: a single Step switching at t0 >= 0,
   or a single rising RAMP (t0 >= 0), PULSE (delay >= 0) or PWL source,
   crosses 50 % on the grid; anything else measures from t = 0. *)
let origin (sys : Mna.t) ~dt =
  match sys.Mna.sources with
  | [| { Mna.wave = Circuit.Waveform.Step { t0; _ }; _ } |] when t0 >= 0.0 ->
      Some (step_reference ~t0 ~dt)
  | [| { Mna.wave = Circuit.Waveform.Ramp { t0; _ } as wave; _ } |]
    when t0 >= 0.0 ->
      grid_reference wave ~dt
  | [| { Mna.wave = Circuit.Waveform.Pulse { delay; _ } as wave; _ } |]
    when delay >= 0.0 ->
      grid_reference wave ~dt
  | [| { Mna.wave = Circuit.Waveform.Pwl _ as wave; _ } |] ->
      grid_reference wave ~dt
  | _ -> None

let input_reference sys ~dt = Option.value ~default:0.0 (origin sys ~dt)

(* The threshold scan's fixed timestep. *)
let scan_dt options ~horizon = horizon /. float_of_int options.steps_per_chunk

let delay_origin ?(options = default_options) nl ~horizon =
  origin (Mna.build nl) ~dt:(scan_dt options ~horizon)

type 'a bounded = Exact of 'a | Above of float

(* A scan's per-probe arrays, kept per domain between scans: each
   probe's target, its delay once found (nan while pending) and its
   previous sample, then the previous step's time. *)
type scan = {
  mutable target : float array;
  mutable found : float array;
  mutable prev : float array;
}

let scan_buffers =
  Numeric.Scratch.make (fun () -> { target = [||]; found = [||]; prev = [||] })

let threshold_scan_result ?(options = default_options) ?stamps
    ?(cutoff = Float.infinity) pattern ~idx ~x0 ~xf ~horizon =
  if horizon <= 0.0 then
    invalid_arg "Engine.threshold_scan_result: horizon must be positive";
  let* () = injected_fault ~horizon in
  Numeric.Scratch.use scan_buffers @@ fun b ->
  let num_probes = Array.length idx in
  b.target <- Numeric.Scratch.floats b.target num_probes;
  b.found <- Numeric.Scratch.floats b.found num_probes;
  b.prev <- Numeric.Scratch.floats b.prev (num_probes + 1);
  let target = b.target and found = b.found and prev = b.prev in
  let dt = scan_dt options ~horizon in
  let t_ref = input_reference (Transient.system pattern) ~dt in
  (* Probes that start at their target (degenerate) report delay 0.
     Each pending probe keeps its previous sample; every probe shares
     its time, the previous step's (t = 0 before the first), in the
     last slot of [prev]. *)
  let pending = ref 0 in
  for p = 0 to num_probes - 1 do
    let u = idx.(p) in
    target.(p) <- x0.(u) +. (0.5 *. (xf.(u) -. x0.(u)));
    prev.(p) <- x0.(u);
    if x0.(u) >= target.(p) then found.(p) <- 0.0
    else begin
      found.(p) <- Float.nan;
      incr pending
    end
  done;
  prev.(num_probes) <- 0.0;
  (* Set when the scan stops before its last crossing: a pending probe
     crosses no earlier than the step it is still below its target at,
     so the largest delay is at least that step's time past [t_ref]. *)
  let above = ref None in
  (* Judge every new state as it is computed: a probe crosses at the
     first sample at or above its target, interpolated linearly against
     the sample before it. The loop ends at the step where the last
     pending probe crosses, or where a pending one's delay is already
     past [cutoff], so no later step is integrated. *)
  let on_step t1 v =
    for p = 0 to num_probes - 1 do
      if Float.is_nan found.(p) then begin
        let v1 = v.(p) in
        if v1 >= target.(p) then begin
          let v0 = prev.(p) and t0 = prev.(num_probes) in
          let t_cross =
            if v1 = v0 then t1
            else t0 +. ((target.(p) -. v0) /. (v1 -. v0) *. (t1 -. t0))
          in
          (* The floor absorbs rounding where a node follows the input
             within one step (the driven node itself crosses exactly
             at [t_ref]). *)
          found.(p) <- Float.max 0.0 (t_cross -. t_ref);
          decr pending
        end
        else prev.(p) <- v1
      end
    done;
    prev.(num_probes) <- t1;
    if !pending > 0 && t1 -. t_ref > cutoff then above := Some (t1 -. t_ref);
    !pending = 0 || Option.is_some !above
  in
  let result () =
    match !above with
    | Some bound -> Above bound
    | None ->
        Exact
          (Array.init num_probes (fun p ->
               if Float.is_nan found.(p) then None else Some found.(p)))
  in
  (* dt is fixed for the whole scan, so every chunk extension reuses
     one factored companion; a scan whose probes all start at their
     targets never builds it. *)
  let rec extend cp x t0 steps extensions =
    if Option.is_some !above || !pending = 0 || extensions > options.max_extensions
    then Ok (result ())
    else begin
      let x, taken = Transient.loop cp ~x0:x ~t0 ~steps ~probes:idx ~on_step in
      let* () = check_finite ~stage:"spice.transient" x in
      (* Double the window each retry so n extensions cover 2^n
         horizons. *)
      extend cp x
        (t0 +. (float_of_int taken *. dt))
        (steps * 2) (extensions + 1)
    end
  in
  if !pending = 0 then Ok (result ())
  else
    match
      Transient.with_companion ?stamps pattern ~dt (fun cp ->
          extend cp x0 0.0 options.steps_per_chunk 0)
    with
    | Error k -> Error (Nontree_error.singular ~stage:"spice.transient" k)
    | Ok r -> r

let threshold_delays_result ?options nl ~probes ~horizon =
  let sys = Mna.build nl in
  let idx = probe_indices nl sys probes in
  let* p = prepare_result sys in
  let* found =
    threshold_scan_result ?options p.pattern ~idx ~x0:p.x0 ~xf:p.xf ~horizon
  in
  match found with
  | Exact found -> Ok (List.mapi (fun p name -> (name, found.(p))) probes)
  | Above _ -> assert false (* no cutoff *)
