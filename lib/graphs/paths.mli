(** Shortest paths in weighted graphs. *)

val dijkstra : Wgraph.t -> int -> float array * int array
(** [dijkstra g src] is [(dist, pred)]: [dist.(v)] the shortest weighted
    distance from [src] (infinity when unreachable) and [pred.(v)] the
    predecessor on one shortest path (-1 for [src] and unreachable
    vertices). *)
