(** Rooted views of spanning trees.

    Elmore delay (Section 2 of the paper) is defined on a tree rooted at
    the source pin n0: each non-root vertex i has a unique parent edge
    e_i, and the delay along e_i involves the total capacitance of the
    subtree hanging below i. This module provides that rooted view. *)

type t = {
  root : int;
  parent : int array;  (** [parent.(root) = -1] *)
  children : int list array;
  order : int array;  (** vertices in preorder from the root *)
  edge_weight : float array;
      (** [edge_weight.(i)] is the weight of edge (parent i, i);
          0 for the root. *)
  depth : float array;
      (** weighted distance from the root: the "pathlength" used by
          heuristic H3. *)
}

val of_tree : Wgraph.t -> root:int -> t
(** Roots a spanning tree at [root].

    @raise Invalid_argument when the graph is not a spanning tree. *)

val fold_subtree_sums : t -> (int -> float) -> float array
(** [fold_subtree_sums t leaf_value] returns [s] with
    [s.(i) = sum over j in subtree(i) of leaf_value j]. Linear time. *)
