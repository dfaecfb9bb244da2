(** Pluggable delay oracles.

    The paper evaluates routings with SPICE but steers some heuristics
    with Elmore delay; the LDRG greedy loop can run against any of
    these oracles, which is how the repository's oracle-fidelity
    ablation (experiment X3 in DESIGN.md) is expressed.

    Each model is evaluated by one {!prepare} and one {!score}, for a
    plain evaluation (no edit) and a greedy candidate (one changed
    wire) alike. The [_result] variants carry operational failures
    (singular matrices, non-finite values, unsettled probes, unusable
    nets) as [Nontree_error.t] instead of exceptions; {!Robust} builds
    the retry-and-degrade policy on top of them. *)

type spice_config = {
  options : Spice.Engine.options;
  segmentation : Lumping.segmentation;
  include_inductance : bool;
}

type t =
  | Elmore_tree
      (** O(k) tree formula; [Invalid_net] on non-tree routings *)
  | First_moment
      (** exact first moment from the conductance matrix; any graph *)
  | Two_pole
      (** two-moment 50 % estimate; any graph *)
  | Spice of spice_config
      (** full transient simulation, 50 % threshold *)

val default_spice : spice_config
(** Trapezoidal, per-length segmentation, RC only. *)

val fast_spice : spice_config
(** Coarse stepping (80 steps per chunk) and [Fixed 2] segmentation:
    two π-segments per wire — for greedy loops. *)

val accurate_spice : spice_config
(** Fine stepping (2500 steps per chunk) and one π-segment per 500 µm
    of wire, at most 10 per wire — for reported numbers. *)

val rlc_spice : spice_config
(** Like {!default_spice} with the Table 1 wire inductance included. *)

val name : t -> string
(** Short label for tables ("elmore", "spice", ...). *)

val sink_delays_result :
  t ->
  tech:Circuit.Technology.t ->
  Routing.t ->
  ((int * float) list, Nontree_error.t) result
(** Delay to every sink, as (vertex, seconds): {!prepare} then {!score}
    with no edit. All returned delays are guaranteed finite; any
    NaN/Inf, singular factorisation, unsettled probe, or
    tree-only-oracle-on-a-graph condition becomes an [Error]. *)

val sink_delays :
  t -> tech:Circuit.Technology.t -> Routing.t -> (int * float) list
(** Legacy variant of {!sink_delays_result}.

    @raise Nontree_error.Error on any operational failure. *)

val max_delay : t -> tech:Circuit.Technology.t -> Routing.t -> float
(** The objective t(G) = max over sinks.

    @raise Nontree_error.Error on any operational failure. *)

val spice_horizon : tech:Circuit.Technology.t -> Routing.t -> float
(** 4 × the [First_moment] oracle's largest sink delay, computed as
    that oracle computes it (its first moments solved at every vertex,
    taken only at the sinks) but drawing no fault ({!Fault}): the window
    for simulating a routing's netlist ([route --deck], the examples).
    The perfbench layer replay calls it too.

    @raise Nontree_error.Error on a singular or non-finite system. *)

(** {1 Rounds}

    The greedy loops score many one-wire edits of one base routing.
    Each model's evaluation is split in two: {!prepare} sets up the
    base's factored system once, and {!score} answers the base itself
    or the base with one wire changed, as one conductance change on
    that system (a Sherman–Morrison correction of its solves,
    {!Numeric.Sparse.with_conductance}). The plain oracle is the empty
    edit. *)

type wire = {
  u : int;
  v : int;
      (** the endpoints; a resized wire's in canonical order (u < v) *)
  length : float;
  width : float;  (** the width the wire ends with *)
  was : float option;
      (** the width it replaces; [None] for a new wire *)
}
(** An edit of a round's base as the wire it stamps: the wire's values
    change from those at [was] (zero for a new wire) to those at
    [width]. *)

type round
(** One routing's factored system under one model; read-only, so
    worker domains share it. *)

val prepare :
  t -> tech:Circuit.Technology.t -> Routing.t -> (round, Nontree_error.t) result
(** The set-up of an evaluation: for [Elmore_tree] the tree's delays;
    for the moment models G factored and the node capacitances c
    (with the ideal step source shorted, G holds the wire conductances
    and the driver conductance on the source pin's diagonal, and c
    each vertex's pin load plus half of every incident wire's
    capacitance, the π model; the first moments solve G·m1 = c, which
    on a tree are Elmore's delays); for [Spice] {!Lumping.system}
    under the config and its {!Spice.Engine.prepare_result}, the only
    system a SPICE evaluation factors. Its errors are the evaluation's. A wire
    {!Lumping.system} refuses (zero length, overflow) is a non-finite
    ["spice.lumping"] error, which {!Robust} retries. *)

val score :
  ?cutoff:float ->
  round ->
  wire option ->
  (float array Spice.Engine.bounded, Nontree_error.t) result
(** [score round edit] is the delay to every sink of the round's
    routing with [edit] applied ([None]: the routing itself), in
    seconds, one per sink in {!Routing.sinks} order, each finite; the
    array is fresh. Its largest is {!Sinks.largest}. Each call
    is one query: the moment models draw their fault ({!Fault}) here,
    SPICE in its scan. An edit adds Δg = 1/R_new − 1/R_old between
    the wire's ends to G and half its capacitance change to c at each
    end.
    - Moment models: the first (and second) moments are corrected
      solves at every vertex, each checked finite, in per-domain
      buffers; the delays (m1, or the two-pole fit) are taken or
      fitted only at the sinks, and the result is all a candidate
      allocates beyond a few fixed words. [cutoff] is ignored.
    - SPICE: the corrected first moments give the transient window
      (4 × the largest sink's). At
      DC a wire's π-chain is one series conductance and its interior
      nodes lie evenly between its ends, so the round's operating
      point and settled state are corrected and interpolated; the
      wire's segments reach the transient as
      {!Spice.Transient.stamps}, on fresh interior unknowns for an
      added wire, on the chain's own for a resized one. [cutoff]
      (default infinity) stops a scan that cannot come in under it:
      [Above b] ({!Spice.Engine.threshold_scan_result}).
    A degenerate update is a [Singular_matrix] error.
    @raise Invalid_argument for an edit of an Elmore or RLC round. *)

val window : round -> wire option -> (float, Nontree_error.t) result
(** The transient window {!score} gives a SPICE round's routing or an
    edit of it: 4 × the largest of the corrected
    first moments over the sinks. On an RLC round too, where {!score}
    takes no edit.
    @raise Invalid_argument on an Elmore or moment round. *)
