(** Fault-tolerant delay evaluation: bounded retry-with-refinement,
    then graceful degradation through cheaper oracles.

    The LDRG/SLDRG loops issue O(k²) SPICE transients per iteration; a
    single non-settling probe or near-singular MNA matrix used to abort
    a whole 50-net × 4-size experiment. This layer guarantees that one
    bad evaluation costs at most a logged fallback:

    + the primary oracle is attempted up to 3 times, each retry with
      halved timestep and extra π-segments ({!refine_spice});
    + on continued failure it degrades SPICE → first moment → Elmore
      (trees only), recording each degradation in
      {!Nontree_error.Counters};
    + [Invalid_net] errors are never retried — no refinement fixes a
      broken input.

    With fault injection disabled and a healthy net, the first attempt
    runs the unmodified oracle, so results are bit-identical to calling
    {!Model.sink_delays} directly. Diagnostics go to the [nontree.robust]
    [Logs] source. *)

val refine_spice : Model.spice_config -> attempt:int -> Model.spice_config
(** The refinement schedule (exposed for tests): attempt [n] runs with
    [steps_per_chunk × 2^(n-1)] and segmentation deepened by [2(n-1)]
    segments. Its window is attempt 1's (a π-chain's first moments do
    not depend on its segment count), so its timestep is [2^(n-1)]×
    shorter. Attempt 1 is the unmodified configuration. *)

val fallback_chain : Model.t -> Routing.t -> Model.t list
(** The degradation order tried after the primary oracle is exhausted;
    Elmore appears only for tree routings. *)

val sink_delays :
  model:Model.t ->
  tech:Circuit.Technology.t ->
  Routing.t ->
  ((int * float) list, Nontree_error.t) result

val sink_delays_exn :
  model:Model.t ->
  tech:Circuit.Technology.t ->
  Routing.t ->
  (int * float) list
(** @raise Nontree_error.Error when retries and fallback are exhausted. *)

val evaluation_count : unit -> int
(** Process-wide number of robust oracle evaluations ({!sink_delays}
    entries, across all domains) — the oracle-call count the bench
    harness records, as deltas, next to wall time and cache hit
    rates. *)
