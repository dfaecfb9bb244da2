(** Topology metrics for routing comparisons.

    The pre-Elmore performance-driven literature the paper builds on
    (Cong et al. [8], Alpert et al. [1]) trades off tree {e cost}
    (total wirelength) against {e radius} (longest source→sink path):
    shorter paths mean lower linear delay, less wire means lower
    capacitance. These metrics quantify that tradeoff for any routing,
    tree or not. *)

val radius : Routing.t -> float
(** Longest shortest-path distance from the source to any sink, µm. *)
