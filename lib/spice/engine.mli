(** High-level simulation driver.

    This is the "SPICE" the rest of the repository calls: given a
    netlist it computes operating points, transient traces, and the 50 %
    threshold delays that define the paper's delay metric t(n_i). A
    threshold query factors G once (operating point and settled state)
    and its trapezoidal companion once, and scans crossings as the step
    loop produces states, stopping at the last one, or, given a cutoff,
    once the largest delay is known to exceed it. The delay oracles
    skip the netlist: they {!prepare_result} an MNA system stamped
    straight from the routing and hand {!threshold_scan_result} its
    compiled pattern with its operating point and settled state, or,
    for an edit of it, those states corrected and the edit's stamps.

    Every analysis reports operational failures (singular MNA
    matrices, non-finite waveforms, probes that never settle) as
    [Nontree_error.t] results, the fault-tolerant oracle route.
    Argument-shape mistakes (unknown probe names, non-positive
    horizons) raise [Invalid_argument]. When fault injection ({!Fault})
    is enabled, threshold-delay queries occasionally fail on purpose:
    the scan draws once per query. *)

type options = {
  steps_per_chunk : int;
      (** timesteps per simulation chunk; also sets the step size of a
          fixed-horizon transient *)
  max_extensions : int;
      (** how many times a threshold search may double its horizon
          before giving up *)
}

val default_options : options
(** 600 steps per chunk, 12 extensions. *)

val fast_options : options
(** Coarser (80 steps per chunk) — used inside greedy routing loops
    where thousands of simulations are run per net. Within 0.1 % of a
    20,000-step run on routing nets, because delays are measured from
    the input's own 50 % crossing ({!input_reference}). *)

val accurate_options : options
(** Finer (2500 steps) — for final reported numbers. *)

val dc_result :
  Circuit.Netlist.t -> ((string * float) list, Nontree_error.t) result
(** DC operating point at t = 0: node name → voltage, excluding
    ground. A singular or non-finite system is an [Error]. *)

val transient_result :
  ?options:options ->
  Circuit.Netlist.t ->
  tstop:float ->
  probes:string list ->
  (Trace.t, Nontree_error.t) result
(** Fixed-horizon transient from the t=0 operating point, recording the
    named nodes. A singular system or a waveform that leaves the finite
    range is an [Error].

    @raise Invalid_argument for an unknown probe name or a
    non-positive [tstop]. *)

val input_reference : Mna.t -> dt:float -> float
(** The time the input crosses its own 50 % point on the solver grid
    t_n = n·[dt], from which the threshold search measures every delay
    (the standard 50 %-in to 50 %-out delay). The trapezoidal rule
    averages b(t_n) and b(t_n+1), so it sees the input as the polyline
    through its grid samples, and the reference is where that polyline
    crosses.
    - A single [Step] switching at t0 >= 0 (every oracle's drive, at
      t = 0): with m·[dt] the last grid time not after t0, a one-step
      ramp crossing at m·[dt] + [dt]/2.
    - A single rising [Ramp] (t0 >= 0), [Pulse] (delay >= 0) or [Pwl]:
      the crossing halfway from its value at t = 0 to its
      {!Circuit.Waveform.settled} level, interpolated between the last
      sample below that level and the first at or above it.
    Any other set of sources — a falling or flat drive, several
    sources, or an edge the grid steps over within a sample or two —
    keeps the t = 0 reference. *)

val delay_origin :
  ?options:options -> Circuit.Netlist.t -> horizon:float -> float option
(** Where {!threshold_delays_result} [?options nl ~horizon] measures
    delays from: [Some t], the {!input_reference} of its timestep,
    when a single Step, RAMP, PULSE or PWL source drives [nl] and has
    one;
    [None] when delays run from t = 0. *)

type 'a bounded =
  | Exact of 'a
  | Above of float
      (** the query's largest delay is at least this, which exceeds
          the query's cutoff *)
(** The answer to a query with a cutoff: the result itself, or a lower
    bound on its largest delay once that delay is known to exceed the
    cutoff. *)

val threshold_scan_result :
  ?options:options ->
  ?stamps:Transient.stamps ->
  ?cutoff:float ->
  Transient.pattern ->
  idx:int array ->
  x0:float array ->
  xf:float array ->
  horizon:float ->
  (float array bounded, Nontree_error.t) result
(** The chunked threshold search on an already-built system, compiled
    ({!Transient.compile}) so that one round's candidates share its
    pattern and refactor plan, grown by [stamps] when given ([x0] and
    [xf] then have the grown length; both are only read, so they may be
    a caller's buffers):
    from state [x0], integrate at dt = [horizon] / [steps_per_chunk],
    doubling the window up to [max_extensions] times, until every
    probed unknown in [idx] crosses halfway from [x0] to its settled
    value [xf]. The result holds one delay per probe, in [idx]'s
    order; a probe that never crosses reads nan.
    {!Transient.loop} hands over each step's probe values: a crossing
    is interpolated linearly between a probe's first sample at or above
    its target and the sample before, and the loop stops at the step
    where the last pending probe crosses, recording nothing. The
    companion, the loop's buffers and the scan's own per-probe arrays
    (targets, crossings, previous samples) are the calling domain's,
    reused by the next scan; only the result is fresh. [horizon] sets
    only dt.

    [cutoff] (default infinity) stops a scan that cannot come in at or
    under it: at the first step t_k where some probe is still below its
    target and t_k − t_ref > [cutoff] (t_ref the {!input_reference}),
    the scan returns [Above (t_k − t_ref)]. That probe crosses no
    earlier than t_k, so the bound b satisfies [cutoff] < b ≤ the
    largest delay. Otherwise the result is [Exact], with the same bits
    and the same steps as a scan without the cutoff; a largest delay
    equal to [cutoff] is never cut. The state at a cut is checked for
    finiteness as at a chunk's end. Each crossing is reported relative to
    {!input_reference} (floored at 0); a probe that starts at its
    target reports 0. This is the core of {!threshold_delays_result},
    exposed so the delay oracles scan a routing's system, or an edited
    wire's stamps on it, without a netlist. The scan draws the query's
    fault ({!Fault}) once, after checking [horizon]: an injected fault
    is its [Error].

    @raise Invalid_argument on a non-positive [horizon]. *)

type prepared = {
  pattern : Transient.pattern;
      (** the system compiled, with its G factorisation's plan when C
          adds no slot to G *)
  g_lu : Numeric.Sparse.t;
  x0 : float array;  (** the operating point, G⁻¹·b(0) *)
  xf : float array;  (** the settled state, G⁻¹·b(settled) *)
  cap : float array;
      (** c: C's row sums on the node unknowns, zero on the branch rows *)
  m1 : float array;
      (** G⁻¹·c: where one source pins the drive node, the nodes' first
          moments (on a lowered routing, the [First_moment] oracle's
          delay at each vertex up to rounding: a π-chain's interior
          capacitances split evenly to its ends) *)
}
(** A system's one factorisation of G and the states its analyses
    start from and settle toward; read-only, so worker domains share
    it. *)

val prepare_result : Mna.t -> (prepared, Nontree_error.t) result
(** Compiles the system ({!Transient.compile}), factors G once, solves
    [x0] (stage ["spice.dc"], also that of a singular G), [xf]
    (["spice.settle"]) and [m1]. Where C adds no slot to G
    ({!Transient.plannable}) G is factored with its plan
    ({!Numeric.Sparse.try_factor_with_plan}) and the pattern keeps it
    ({!Transient.with_plan}), so that its companions refactor on it;
    elsewhere (RLC lowerings, decks with a floating capacitor) G is
    factored without building one. Every analysis here starts from
    it. *)

val threshold_delays_result :
  ?options:options ->
  Circuit.Netlist.t ->
  probes:string list ->
  horizon:float ->
  ((string * float option) list, Nontree_error.t) result
(** [threshold_delays_result nl ~probes ~horizon] is
    {!threshold_scan_result} from [x0] toward [xf] of [Mna.build nl],
    prepared, with the named probes and no cutoff: each one's 50 % delay from the t = 0 operating point
    toward the state with every source at its
    {!Circuit.Waveform.settled} level (a PULSE at its first plateau),
    measured from {!input_reference}; [None] for a probe that never
    crosses within [max_extensions] doublings of the window. [horizon],
    a few times the slowest expected time constant, sets the timestep
    with [steps_per_chunk]. A non-finite state is a [Non_finite] error,
    a singular factorisation a [Singular_matrix] one.

    @raise Invalid_argument for an unknown probe name. *)
