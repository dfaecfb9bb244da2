(** Dense LU factorisation with partial pivoting, and linear solves.

    The reference kernel that tests check {!Sparse} against: the
    routing stack itself factors only with {!Sparse}. Its cost is
    O(n³) per factorisation and O(n²) per solve.

    Singularity is detected, not masked: a pivot smaller than 1e-13
    times the largest input entry (or 1e-300 absolutely) marks the
    matrix numerically rank-deficient, as do non-finite input entries.
    {!Sparse} uses the same floors, but its pivot order differs, so
    the two verdicts can disagree on borderline matrices. *)

type t
(** A factorisation PA = LU of a square matrix. *)

exception Singular of int
(** Raised (with the offending pivot column, or [-1] for non-finite
    input entries) when no usable pivot exists. *)

val try_factor : Matrix.t -> (t, int) result
(** [try_factor m] is the [Result]-returning factorisation: [Error k]
    reports the pivot column whose scaled pivot fell below threshold,
    [Error (-1)] a non-finite input entry. Pivot selection is identical
    to {!factor}.

    @raise Invalid_argument when the matrix is not square. *)

val factor : Matrix.t -> t
(** @raise Singular when no usable pivot exists.
    @raise Invalid_argument when the matrix is not square. *)

val solve : t -> float array -> float array
(** [solve lu b] returns x with Ax = b.

    @raise Invalid_argument on a length mismatch. *)

val solve_in_place : t -> float array -> unit
(** Like {!solve} but overwrites [b] with the solution, using the
    factorisation's own scratch buffer (one caller at a time). *)

val solve_matrix : Matrix.t -> float array -> float array
(** One-shot convenience: factor then solve. *)
