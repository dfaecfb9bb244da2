let src =
  Logs.Src.create "nontree.robust" ~doc:"Fault-tolerant delay-oracle layer"

module Log = (val Logs.src_log src : Logs.LOG)

(* Attempts with the primary oracle before degrading. *)
let max_attempts = 3

(* Each refined attempt halves the timestep (doubling steps_per_chunk),
   adds pi-segments, and doubles the transient horizon: the three knobs
   that cure a non-settling or numerically rough SPICE probe. *)
let refine_spice (c : Model.spice_config) ~attempt =
  if attempt <= 1 then c
  else begin
    let mult = 1 lsl (attempt - 1) in
    let extra_segments = 2 * (attempt - 1) in
    let options =
      { c.Model.options with
        Spice.Engine.steps_per_chunk =
          c.Model.options.Spice.Engine.steps_per_chunk * mult }
    in
    let segmentation =
      match c.Model.segmentation with
      | Lumping.Fixed n -> Lumping.Fixed (n + extra_segments)
      | Lumping.Per_length { unit_length; max_segments } ->
          Lumping.Per_length
            { unit_length = unit_length /. float_of_int mult;
              max_segments = max_segments + extra_segments }
    in
    { c with Model.options; segmentation }
  end

let refined_model model ~attempt =
  match model with
  | Model.Spice c when attempt > 1 -> Model.Spice (refine_spice c ~attempt)
  | m -> m

let retryable = function
  | Nontree_error.Invalid_net _ -> false
  | Nontree_error.Singular_matrix _ | Nontree_error.Non_finite _
  | Nontree_error.Probe_never_settled _ ->
      true

(* Degradation order: SPICE -> exact first moment -> Elmore (trees
   only). Each step trades fidelity for a strictly simpler numeric
   path; Elmore is a closed-form traversal that cannot fail on a valid
   tree. *)
let fallback_chain model r =
  let elmore = if Routing.is_tree r then [ Model.Elmore_tree ] else [] in
  match model with
  | Model.Spice _ | Model.Two_pole -> Model.First_moment :: elmore
  | Model.First_moment -> elmore
  | Model.Elmore_tree -> []

let count_fallback = function
  | Model.Elmore_tree -> Nontree_error.Counters.incr_elmore_fallbacks ()
  | _ -> Nontree_error.Counters.incr_moment_fallbacks ()

(* Process-wide tally of robust oracle evaluations — the denominator
   the bench harness reports next to cache hit rates. A registry
   counter, so it lands in nontree-obs-v1 manifests as
   "oracle.evaluations". *)
let evaluation_counter = Obs.Counter.make "oracle.evaluations"

(* Wall-time distribution of one robust evaluation (retries, fallback
   and all); populated only while observability is enabled. *)
let evaluation_seconds =
  Obs.Histogram.make "oracle.eval_seconds"
    ~buckets:[| 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0 |]

let evaluation_count () = Obs.Counter.value evaluation_counter

let sink_delays ~model ~tech r =
  Obs.Counter.incr evaluation_counter;
  Obs.timed evaluation_seconds @@ fun () ->
  (* Domain-local window: an evaluation runs on one domain, so this
     counts exactly the faults injected into *this* evaluation even
     while other domains inject concurrently. *)
  let injected_before = Nontree_error.Counters.faults_injected_local () in
  let rec attempt n =
    let scale = float_of_int (1 lsl (n - 1)) in
    match
      Model.sink_delays_result ~horizon_scale:scale
        (refined_model model ~attempt:n)
        ~tech r
    with
    | Ok ds -> Ok ds
    | Error e when retryable e && n < max_attempts ->
        Nontree_error.Counters.incr_retries ();
        Log.info (fun f ->
            f "oracle %s attempt %d/%d failed (%s); retrying refined"
              (Model.name model) n max_attempts
              (Nontree_error.to_string e));
        attempt (n + 1)
    | Error e -> Error e
  in
  let result =
    match attempt 1 with
    | Ok ds -> Ok ds
    | Error e when retryable e ->
        let rec fall last_err = function
          | [] -> Error last_err
          | m :: rest -> (
              count_fallback m;
              Log.warn (fun f ->
                  f "degrading oracle %s -> %s after %s" (Model.name model)
                    (Model.name m)
                    (Nontree_error.to_string last_err));
              match Model.sink_delays_result m ~tech r with
              | Ok ds -> Ok ds
              | Error e' -> fall e' rest)
        in
        fall e (fallback_chain model r)
    | Error e -> Error e
  in
  (match result with
  | Ok _ ->
      let survived =
        Nontree_error.Counters.faults_injected_local () - injected_before
      in
      if survived > 0 then Nontree_error.Counters.add_faults_survived survived
  | Error e ->
      Nontree_error.Counters.incr_oracle_errors ();
      Log.err (fun f ->
          f "oracle %s failed after retries and fallback: %s"
            (Model.name model)
            (Nontree_error.to_string e)));
  result

let sink_delays_exn ~model ~tech r =
  match sink_delays ~model ~tech r with
  | Ok ds -> ds
  | Error e -> Nontree_error.raise_error e
