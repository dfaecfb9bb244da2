(** Moment analysis of general (possibly cyclic) RC routing graphs.

    Elmore's tree formula does not apply once extra wires create
    cycles; the paper points to Chan–Karplus-style transformations [6]
    for the general case. This module computes the exact first moment
    of the impulse response directly from the conductance matrix:

    with the step source shorted, G the node conductance matrix
    (wire conductances plus the driver conductance at the source pin)
    and c the vector of node capacitances (pin loads plus half of each
    incident wire's capacitance — the π model), the first moment at
    every node is the solution of G·m = c.

    On trees this coincides exactly with {!Elmore.delays}, which is a
    tested invariant of the repository. *)

val node_capacitances : tech:Circuit.Technology.t -> Routing.t -> float array
(** The right-hand side c: per-vertex capacitance under the π model —
    pin loads plus half of every incident wire's capacitance; a moment
    round's c ({!Model.prepare}). *)

val conductance_matrix :
  tech:Circuit.Technology.t -> Routing.t -> Numeric.Sparse.Csc.t
(** The system matrix G: wire conductances plus the driver conductance
    on the source diagonal, over all vertices; a moment round factors
    it once ({!Model.prepare}), and an edited wire is one symmetric
    rank-1 term on top of it. *)

val first_moments : tech:Circuit.Technology.t -> Routing.t -> float array
(** Per-vertex first moment (the generalised Elmore delay), for any
    connected routing graph.

    @raise Numeric.Sparse.Singular on a malformed topology. *)

val sink_delays : tech:Circuit.Technology.t -> Routing.t -> (int * float) list

val max_delay : tech:Circuit.Technology.t -> Routing.t -> float
(** max over sinks of the first moment — the non-tree t_ED analogue. *)

val higher_moments :
  tech:Circuit.Technology.t -> Routing.t -> order:int -> float array array
(** [higher_moments ~tech r ~order] returns moments m_1..m_order (rows)
    of the voltage impulse response at every vertex, via the recursion
    m_{k+1} = G⁻¹·C·m_k. Used by the two-pole delay estimate.

    @raise Invalid_argument when [order < 1]. *)

val two_pole_fit : m1:float array -> m2:float array -> float array
(** The two-pole 50 %-threshold fit from given first and second
    moments: the per-vertex formula of {!two_pole_delay} and of
    {!Model.score}. *)

val two_pole_delay : tech:Circuit.Technology.t -> Routing.t -> float array
(** 50 %-threshold delay estimate per vertex from the first two
    moments, fitting a single dominant pole with a time-shift
    correction; falls back to ln 2 · m₁ when the fit degenerates.
    More accurate than raw m₁ against SPICE's 50 % metric. *)
