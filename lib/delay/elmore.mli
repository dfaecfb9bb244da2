(** Elmore delay for routing trees (Section 2, equation 1).

    With the net rooted at the source n0, edge e_i joining pin n_i to
    its parent, r/c proportional to wirelength, C_i the total
    capacitance of the subtree below n_i (sink loads plus wire
    capacitance), and r_d the driver resistance:

    t_ED(n_i) = r_d·C_n0 + Σ_{e_j ∈ path(n0,n_i)} r_ej·(c_ej/2 + C_j)

    Computed in O(k) as Rubinstein–Penfield–Horowitz observed. Only
    defined for trees; the non-tree generalisation is the first moment
    of {!Model}'s [First_moment] oracle. *)

val delays : tech:Circuit.Technology.t -> Routing.t -> float array
(** Per-vertex Elmore delay (seconds), index-aligned with the routing's
    vertices; the source reads the common r_d·C_n0 term.

    @raise Invalid_argument when the routing is not a tree. *)

val sink_delays : tech:Circuit.Technology.t -> Routing.t -> (int * float) list
(** Delays restricted to the net's sinks, as (vertex, delay) pairs. *)

val max_delay : tech:Circuit.Technology.t -> Routing.t -> float
(** The tree objective t_ED(T) = max over sinks. *)

val total_capacitance : tech:Circuit.Technology.t -> Routing.t -> float
(** C_n0: all wire capacitance plus every pin's load capacitance. *)
