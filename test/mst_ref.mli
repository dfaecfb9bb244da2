(** MSTs of arbitrary connected graphs, the references that
    [Graphs.Mst.prim_complete] is cross-validated against. *)

val kruskal : Graphs.Wgraph.t -> Graphs.Wgraph.t
(** MST by Kruskal's algorithm over a {!Union_find}.

    @raise Invalid_argument when the graph is disconnected. *)

val prim : Graphs.Wgraph.t -> Graphs.Wgraph.t
(** MST by Prim's algorithm (adjacency scan).

    @raise Invalid_argument when the graph is empty or disconnected. *)
