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
    [horizon_scale] (default 1) stretches the SPICE transient window —
    the retry-with-refinement lever of {!Robust}. *)

val sink_delays :
  t -> tech:Circuit.Technology.t -> Routing.t -> (int * float) list
(** Legacy variant of {!sink_delays_result}.

    @raise Nontree_error.Error on any operational failure. *)

val max_delay : t -> tech:Circuit.Technology.t -> Routing.t -> float
(** The objective t(G) = max over sinks.

    @raise Nontree_error.Error on any operational failure. *)

val horizon_of_max_moment : float -> float
(** [horizon_of_max_moment m1] is the initial transient window for a
    routing whose slowest sink has first moment [m1]: a small multiple
    of it (the engine extends the window if the estimate is short).
    The one horizon rule: {!spice_horizon} and the incremental scorer
    both apply it. *)

val spice_horizon : tech:Circuit.Technology.t -> Routing.t -> float
(** Initial transient window used for SPICE runs:
    {!horizon_of_max_moment} of the routing's first moments. *)
