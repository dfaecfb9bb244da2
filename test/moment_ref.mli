(** The moment reference: the moments of a routing's RC graph, for
    checking {!Delay.Model}'s [First_moment] and [Two_pole] oracles.

    With the ideal step source shorted, G is the node conductance matrix
    (wire conductances plus the driver conductance at the source pin)
    and c the node capacitances (pin loads plus half of each incident
    wire's capacitance, the π model). The moments of the impulse
    response at every vertex are m_1 = G⁻¹·c and
    m_{k+1} = G⁻¹·(c .* m_k). This module assembles G densely and
    solves it with the dense {!Lu}, so it shares no assembly or kernel
    with the oracle it checks. *)

val first_moments : tech:Circuit.Technology.t -> Routing.t -> float array
(** m_1 at every vertex, for any connected routing.
    @raise Lu.Singular on a malformed topology. *)

val higher_moments :
  tech:Circuit.Technology.t -> Routing.t -> order:int -> float array array
(** [higher_moments ~tech r ~order] is m_1 .. m_order (rows) at every
    vertex.
    @raise Invalid_argument when [order < 1].
    @raise Lu.Singular on a malformed topology. *)
