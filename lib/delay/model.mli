(** Pluggable delay oracles.

    The paper evaluates routings with SPICE but steers some heuristics
    with Elmore delay; the LDRG greedy loop can run against any of
    these oracles, which is how the repository's oracle-fidelity
    ablation (experiment X3 in DESIGN.md) is expressed.

    The [_result] variants carry operational failures (singular
    matrices, non-finite values, unsettled probes, unusable nets) as
    [Nontree_error.t] instead of exceptions; {!Robust} builds the
    retry-and-degrade policy on top of them. *)

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
  ?horizon_scale:float ->
  t ->
  tech:Circuit.Technology.t ->
  Routing.t ->
  ((int * float) list, Nontree_error.t) result
(** Delay to every sink, as (vertex, seconds). All returned delays are
    guaranteed finite; any NaN/Inf, singular factorisation, unsettled
    probe, or tree-only-oracle-on-a-graph condition becomes an [Error].
    [horizon_scale] (default 1) stretches the SPICE transient window
    ({!window} of {!prepare_spice}) — the retry-with-refinement lever
    of {!Robust}. *)

val sink_delays :
  t -> tech:Circuit.Technology.t -> Routing.t -> (int * float) list
(** Legacy variant of {!sink_delays_result}.

    @raise Nontree_error.Error on any operational failure. *)

val max_delay : t -> tech:Circuit.Technology.t -> Routing.t -> float
(** The objective t(G) = max over sinks.

    @raise Nontree_error.Error on any operational failure. *)

val spice_horizon : tech:Circuit.Technology.t -> Routing.t -> float
(** {!window} of the routing's {!Moments.first_moments}: the window for
    simulating a routing's netlist ([route --deck], the examples). *)

val prepare_spice :
  spice_config ->
  tech:Circuit.Technology.t ->
  Routing.t ->
  (Lumping.system * Spice.Engine.prepared, Nontree_error.t) result
(** The set-up of a SPICE evaluation of a routing, the only system it
    factors: {!Lumping.system} under [config] and its
    {!Spice.Engine.prepare_result}, whose [m1] are the first moments.
    The plain oracle runs on it, and each incremental round is one. A
    wire {!Lumping.system} refuses (zero length, overflow) is a
    non-finite ["spice.lumping"] error, which {!Robust} retries. *)

val window : Routing.t -> float array -> float
(** [window r m1]: 4 × the largest of the first moments [m1] (by
    vertex) over [r]'s sinks, the initial transient window (the engine
    extends it if short). *)
