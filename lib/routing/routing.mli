(** Routing topologies over a signal net.

    A routing is a connected graph whose vertices are the net's pins
    (vertex 0 = source n0, vertices 1..k = sinks) plus optional Steiner
    points (vertices k+1..). Edge weights are Manhattan distances
    between endpoints — the paper's edge cost d_ij. A spanning *tree*
    is the classical routing; this type also represents the paper's
    non-tree routings, where extra edges create cycles.

    Each edge additionally carries a width (default 1.0) used by the
    wire-sized WSORG formulation (Section 5.2): a width-w wire has
    resistance r/w and area capacitance c·w per unit length. *)

type t

val of_net : Geom.Net.t -> Graphs.Wgraph.t -> t
(** [of_net net g] wraps graph [g] whose vertices are exactly the pins
    of [net] (same indexing).

    @raise Invalid_argument when vertex counts disagree, [g] is
    disconnected, or an edge weight differs from the Manhattan distance
    between its endpoints by more than 1e-6. *)

val mst_of_net : Geom.Net.t -> t
(** The minimum spanning tree routing of a net — the paper's baseline. *)

val with_points : source:int -> num_terminals:int -> Geom.Point.t array
  -> (int * int) list -> t
(** [with_points ~source ~num_terminals points edges] builds a routing
    over explicit points (terminals first, then Steiner points); edge
    weights are computed from the geometry. [source] must currently be
    0 — the paper always roots at n0.

    @raise Invalid_argument when constraints are violated or the result
    is disconnected. *)

(** {1 Accessors} *)

val graph : t -> Graphs.Wgraph.t
val points : t -> Geom.Point.t array
val point : t -> int -> Geom.Point.t
val source : t -> int
val num_vertices : t -> int
val num_terminals : t -> int
(** Pins of the original net (source + sinks); Steiner points are the
    vertices from [num_terminals] up. *)

val sinks : t -> int list
(** Vertex ids 1..k of the net's sinks. *)

val is_tree : t -> bool
val cost : t -> float
(** Total wirelength: sum of Manhattan edge lengths (widths do not
    enter the cost, matching the paper's cost columns, which count
    wirelength). *)

val edge_length : t -> int -> int -> float
(** @raise Not_found when the edge is absent. *)

(** {1 Topology edits} *)

val add_edge : t -> int -> int -> t
(** Adds the straight (Manhattan-metric) connection between two
    existing vertices; the new weight is their Manhattan distance.

    @raise Invalid_argument on self-loops or duplicates. *)

val remove_edge : t -> int -> int -> t
(** @raise Not_found when absent.
    @raise Invalid_argument when removal disconnects the routing. *)

val candidate_edges : t -> (int * int) list
(** All vertex pairs not currently joined by an edge — the search space
    of the LDRG greedy step (step 2 of the algorithm in Figure 4). *)

(** {1 Widths (WSORG)} *)

val width : t -> int -> int -> float
(** Width of an edge; 1.0 unless changed. @raise Not_found if absent. *)

val set_width : t -> int -> int -> float -> t
(** @raise Not_found if the edge is absent.
    @raise Invalid_argument if the width is not positive. *)

val widths : t -> ((int * int) * float) list
(** Widths of all edges (canonical endpoint order). *)

(** {1 Rooted tree view} *)

val rooted : t -> Graphs.Rooted.t
(** Rooted-at-source view for Elmore computations.

    @raise Invalid_argument when the routing is not a tree. *)
