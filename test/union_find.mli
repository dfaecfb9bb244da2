(** Disjoint-set forest with union by rank and path compression.
    Amortised near-constant time per operation; {!Mst_ref.kruskal}'s
    cycle test. *)

type t

val create : int -> t
(** [create n] makes [n] singleton sets labelled 0..n-1. *)

val find : t -> int -> int
(** Canonical representative of the element's set. *)

val union : t -> int -> int -> bool
(** [union t a b] merges the two sets; returns [false] when [a] and [b]
    were already in the same set. *)

val same : t -> int -> int -> bool

val count : t -> int
(** Number of disjoint sets currently present. *)
