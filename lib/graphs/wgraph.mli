(** Undirected weighted graphs over vertices 0..n-1.

    Edges are stored canonically with the smaller endpoint first, so an
    undirected edge appears exactly once; parallel edges are rejected.
    This is the routing-topology representation: a spanning *tree* has
    n-1 edges, and the paper's non-tree routings add further edges. *)

type edge = { u : int; v : int; w : float }

module Key : Map.OrderedType with type t = int * int
(** Vertex pairs in lexicographic order, the order polymorphic
    [compare] gives them, compared on ints alone: the edge maps' key. *)

type t

val create : int -> t
(** [create n] is the edgeless graph on [n] vertices. *)

val of_edges : int -> (int * int * float) list -> t
(** Builds a graph from (u, v, weight) triples.

    @raise Invalid_argument on self-loops, duplicate edges, or
    out-of-range endpoints. *)

val num_vertices : t -> int
val num_edges : t -> int

val add_edge : t -> int -> int -> float -> t
(** Functional update; the original graph is unchanged.

    @raise Invalid_argument on a self-loop, a duplicate, or
    out-of-range endpoints. *)

val remove_edge : t -> int -> int -> t
(** @raise Not_found when the edge is absent. *)

val mem_edge : t -> int -> int -> bool
val weight : t -> int -> int -> float
(** @raise Not_found when the edge is absent. *)

val edges : t -> edge list
(** All edges, each once, smaller endpoint first, in increasing
    lexicographic (u, v) order. *)

val neighbors : t -> int -> (int * float) list
(** Adjacent vertices with edge weights. *)

val degree : t -> int -> int

val total_weight : t -> float
(** Sum of edge weights: the routing cost of the topology. *)

val is_connected : t -> bool
(** Whether every vertex is reachable from vertex 0 (true for the empty
    1-vertex graph). *)

val is_spanning_tree : t -> bool
(** Connected with exactly n-1 edges. *)

val fold_edges : (edge -> 'a -> 'a) -> t -> 'a -> 'a
