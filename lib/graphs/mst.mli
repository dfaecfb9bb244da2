(** Minimum spanning trees.

    The MST is the paper's canonical starting topology: every non-tree
    routing experiment begins from the MST (or from a Steiner tree /
    ERT) and adds edges to it. *)

val prim_complete : n:int -> weight:(int -> int -> float) -> Wgraph.t
(** [prim_complete ~n ~weight] is the MST of the complete graph on [n]
    vertices under the symmetric weight function, computed by Prim's
    algorithm in O(n²) — optimal for complete (geometric) graphs.

    @raise Invalid_argument if [n < 1]. *)
