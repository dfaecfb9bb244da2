type options = {
  method_ : Transient.method_;
  steps_per_chunk : int;
  max_extensions : int;
}

let default_options =
  { method_ = Transient.Trapezoidal; steps_per_chunk = 600; max_extensions = 12 }

let fast_options = { default_options with steps_per_chunk = 80 }
let accurate_options = { default_options with steps_per_chunk = 2500 }

(* Operational failures (singular stamps, waveform blow-ups, probes
   that never settle) travel as [Nontree_error.t] results so the
   robustness layer can retry or degrade; argument-shape errors remain
   Invalid_argument. *)

let singular_error ~stage k =
  if k < 0 then Nontree_error.Non_finite { stage; value = Float.nan }
  else Nontree_error.Singular_matrix { stage; column = k }

let check_finite ~stage arr =
  let n = Array.length arr in
  let rec go i =
    if i >= n then Ok ()
    else if Float.is_finite (Array.unsafe_get arr i) then go (i + 1)
    else Error (Nontree_error.Non_finite { stage; value = arr.(i) })
  in
  go 0

(* Fault injection: the oracle stack's test harness asks this layer to
   fail on purpose; see lib/fault. Consulted once per delay query. *)
let injected_fault ~horizon =
  match Fault.draw ~stage:"spice" with
  | None -> None
  | Some Fault.Singular_stamp ->
      Some (Nontree_error.Singular_matrix { stage = "spice.injected"; column = 0 })
  | Some Fault.Nan_value ->
      Some (Nontree_error.Non_finite { stage = "spice.injected"; value = Float.nan })
  | Some Fault.Never_settles ->
      Some (Nontree_error.Probe_never_settled { probe = "(injected)"; horizon })

let ( let* ) = Result.bind

let dc_result nl =
  match
    let sys = Mna.build nl in
    let x = Transient.dc_operating_point sys in
    (sys, x)
  with
  | exception Numeric.Sparse.Singular k -> Error (singular_error ~stage:"spice.dc" k)
  | sys, x ->
      let* () = check_finite ~stage:"spice.dc" x in
      let result = ref [] in
      for node = Circuit.Netlist.num_nodes nl - 1 downto 1 do
        result :=
          (Circuit.Netlist.node_name nl node, Mna.voltage sys x node) :: !result
      done;
      Ok !result

let dc nl =
  match dc_result nl with Ok r -> r | Error e -> Nontree_error.raise_error e

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
  if tstop <= 0.0 then invalid_arg "Engine.transient: tstop must be positive";
  match
    let sys = Mna.build nl in
    let idx = probe_indices nl sys probes in
    let x0 = Transient.dc_operating_point sys in
    let dt = tstop /. float_of_int options.steps_per_chunk in
    let chunk =
      Transient.run
        (Transient.companion sys ~method_:options.method_ ~dt)
        ~x0 ~t0:0.0 ~steps:options.steps_per_chunk ~probes:idx
    in
    (idx, x0, chunk)
  with
  | exception Numeric.Sparse.Singular k ->
      Error (singular_error ~stage:"spice.transient" k)
  | idx, x0, chunk ->
      let* () = check_finite ~stage:"spice.transient" chunk.Transient.final in
      (* Prepend the t=0 operating point so traces start at time zero. *)
      let times = Array.append [| 0.0 |] chunk.Transient.times in
      let data =
        Array.mapi
          (fun p col -> Array.append [| x0.(idx.(p)) |] col)
          chunk.Transient.states
      in
      Ok { Trace.times; names = Array.of_list probes; data }

let transient ?options nl ~tstop ~probes =
  match transient_result ?options nl ~tstop ~probes with
  | Ok t -> t
  | Error e -> Nontree_error.raise_error e

(* The switch time of a system driven by one Step, the only drive whose
   delays are measured from a grid-adjusted input crossing. *)
let step_switch (sys : Mna.t) =
  match sys.Mna.sources with
  | [| { Mna.wave = Circuit.Waveform.Step { t0; _ }; _ } |] when t0 >= 0.0 ->
      Some t0
  | _ -> None

(* On the solver grid t_n = n·dt a Step switching at t0 still reads v0
   at the last grid time m·dt <= t0 and v1 from the next one on. The
   trapezoidal rule averages b(t_n) and b(t_n+1), so it integrates the
   step as a ramp over that one step, whose 50 % point is m·dt + dt/2;
   backward Euler applies b(t_n+1) whole, a step at m·dt. *)
let input_reference sys ~method_ ~dt =
  match step_switch sys with
  | None -> 0.0
  | Some t0 -> (
      let switch = Float.of_int (int_of_float (t0 /. dt)) *. dt in
      match method_ with
      | Transient.Trapezoidal -> switch +. (dt /. 2.0)
      | Transient.Backward_euler -> switch)

(* The threshold scan's fixed timestep. *)
let scan_dt options ~horizon = horizon /. float_of_int options.steps_per_chunk

let delay_origin ?(options = default_options) nl ~horizon =
  let sys = Mna.build nl in
  Option.map
    (fun _ ->
      input_reference sys ~method_:options.method_
        ~dt:(scan_dt options ~horizon))
    (step_switch sys)

let threshold_scan_result ?(options = default_options) ?(fraction = 0.5)
    ?stamps sys ~idx ~x0 ~xf ~horizon =
  if horizon <= 0.0 then
    invalid_arg "Engine.threshold_scan: horizon must be positive";
  let num_probes = Array.length idx in
  let target =
    Array.map (fun u -> x0.(u) +. (fraction *. (xf.(u) -. x0.(u)))) idx
  in
  let dt = scan_dt options ~horizon in
  let t_ref = input_reference sys ~method_:options.method_ ~dt in
  (* Probes that start at their target (degenerate) report delay 0. *)
  let found =
    Array.mapi (fun p u -> if x0.(u) >= target.(p) then Some 0.0 else None) idx
  in
  let pending =
    ref (Array.fold_left (fun n f -> if f = None then n + 1 else n) 0 found)
  in
  (* Each pending probe's previous sample; every probe shares its time,
     the previous step's (t = 0 before the first). *)
  let prev_v = Array.map (fun u -> x0.(u)) idx in
  let prev_t = [| 0.0 |] in
  (* Judge every new state as it is computed: a probe crosses at the
     first sample at or above its target, interpolated linearly against
     the sample before it. The loop ends at the step where the last
     pending probe crosses, so no later step is integrated. *)
  let on_step t1 x =
    for p = 0 to num_probes - 1 do
      if found.(p) = None then begin
        let v1 = x.(idx.(p)) in
        if v1 >= target.(p) then begin
          let v0 = prev_v.(p) and t0 = prev_t.(0) in
          let t_cross =
            if v1 = v0 then t1
            else t0 +. ((target.(p) -. v0) /. (v1 -. v0) *. (t1 -. t0))
          in
          (* The floor absorbs rounding where a node follows the input
             within one step (the driven node itself crosses exactly
             at [t_ref]). *)
          found.(p) <- Some (Float.max 0.0 (t_cross -. t_ref));
          decr pending
        end
        else prev_v.(p) <- v1
      end
    done;
    prev_t.(0) <- t1;
    !pending = 0
  in
  (* dt is fixed for the whole scan, so every chunk extension reuses
     one factored companion; a scan whose probes all start at their
     targets never builds it. *)
  let companion =
    lazy (Transient.companion ?stamps sys ~method_:options.method_ ~dt)
  in
  let rec extend x t0 steps extensions =
    if !pending = 0 || extensions > options.max_extensions then Ok found
    else
      match
        Transient.loop (Lazy.force companion) ~x0:x ~t0 ~steps ~on_step
      with
      | exception Numeric.Sparse.Singular k ->
          Error (singular_error ~stage:"spice.transient" k)
      | x, taken ->
          let* () = check_finite ~stage:"spice.transient" x in
          (* Double the window each retry so n extensions cover 2^n
             horizons. *)
          extend x
            (t0 +. (float_of_int taken *. dt))
            (steps * 2) (extensions + 1)
  in
  extend x0 0.0 options.steps_per_chunk 0

let threshold_delays_result ?(options = default_options) ?(fraction = 0.5) nl
    ~probes ~horizon =
  if horizon <= 0.0 then
    invalid_arg "Engine.threshold_delays: horizon must be positive";
  match injected_fault ~horizon with
  | Some e -> Error e
  | None -> (
      let sys = Mna.build nl in
      let idx = probe_indices nl sys probes in
      (* One factorisation of G serves the operating point and the
         settled state. *)
      match Mna.factor_g_result sys with
      | Error k -> Error (singular_error ~stage:"spice.dc" k)
      | Ok lu ->
          let x0 = Numeric.Sparse.solve lu (Mna.rhs sys 0.0) in
          let* () = check_finite ~stage:"spice.dc" x0 in
          let xf = Numeric.Sparse.solve lu (Mna.settled_rhs sys) in
          let* () = check_finite ~stage:"spice.settle" xf in
          let* found =
            threshold_scan_result ~options ~fraction sys ~idx ~x0 ~xf ~horizon
          in
          Ok (List.mapi (fun p name -> (name, found.(p))) probes))

let threshold_delays ?options ?fraction nl ~probes ~horizon =
  match threshold_delays_result ?options ?fraction nl ~probes ~horizon with
  | Ok r -> r
  | Error e -> Nontree_error.raise_error e

let max_delay_result ?options ?fraction nl ~probes ~horizon =
  let* delays = threshold_delays_result ?options ?fraction nl ~probes ~horizon in
  List.fold_left
    (fun acc (name, d) ->
      let* acc = acc in
      match d with
      | Some t -> Ok (Float.max acc t)
      | None ->
          Error (Nontree_error.Probe_never_settled { probe = name; horizon }))
    (Ok 0.0) delays

let max_delay ?options ?fraction nl ~probes ~horizon =
  match max_delay_result ?options ?fraction nl ~probes ~horizon with
  | Ok d -> d
  | Error e -> Nontree_error.raise_error e
