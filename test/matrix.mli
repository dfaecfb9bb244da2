(** Dense square/rectangular matrices in row-major order, for the
    tests' dense references.

    The library keeps every MNA and moment system in
    {!Numeric.Sparse.Csc}; tests convert with {!of_csc} and {!to_csc}
    to check it against the dense {!Lu} kernel. *)

type t

val create : int -> int -> t
(** [create rows cols] is the zero matrix. *)

val identity : int -> t
val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val add_to : t -> int -> int -> float -> unit
(** [add_to m i j x] performs [m.(i,j) <- m.(i,j) + x] — the "stamping"
    primitive of MNA assembly. *)

val copy : t -> t
val mul_vec : t -> float array -> float array
val add : t -> t -> t
val scale : float -> t -> t

val of_arrays : float array array -> t
val to_arrays : t -> float array array

val of_csc : Numeric.Sparse.Csc.t -> t
(** The dense image of a sparse matrix. *)

val to_csc : t -> Numeric.Sparse.Csc.t
(** The nonzero entries of a square matrix.
    @raise Invalid_argument when it is not square. *)

val max_abs_diff : float array -> float array -> float
(** L∞ distance between two vectors.
    @raise Invalid_argument on a length mismatch. *)
