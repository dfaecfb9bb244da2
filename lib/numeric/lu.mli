(** LU factorisation with partial pivoting, and linear solves.

    The transient engine factors the MNA system matrix once per
    topology and timestep size, then back-substitutes once per step, so
    factorisation and solving are exposed separately.

    Singularity is detected, not masked: a pivot smaller than 1e-13
    times the largest input entry (or 1e-300 absolutely) marks the
    matrix numerically rank-deficient, as do non-finite input entries.
    Earlier revisions silently clamped such pivots and returned
    garbage; the fault-tolerant oracle stack depends on the failure
    being reported. *)

type t
(** A factorisation PA = LU of a square matrix. *)

exception Singular of int
(** Raised (with the offending pivot column, or [-1] for non-finite
    input entries) when no usable pivot exists — circuits whose MNA
    matrix is singular are malformed (e.g. a floating node or a
    zero-length wire stamped as an infinite conductance). *)

val try_factor : Matrix.t -> (t, int) result
(** [try_factor m] is the [Result]-returning factorisation used by the
    fault-tolerant oracle route: [Error k] reports the pivot column
    whose scaled pivot fell below threshold, [Error (-1)] a non-finite
    input entry. Pivot selection is identical to {!factor}.

    @raise Invalid_argument when the matrix is not square. *)

val factor : Matrix.t -> t
(** @raise Singular when no usable pivot exists.
    @raise Invalid_argument when the matrix is not square. *)

val size : t -> int
(** Dimension of the factored matrix. *)

val solve : t -> float array -> float array
(** [solve lu b] returns x with Ax = b.

    @raise Invalid_argument on a length mismatch. *)

val solve_with : work:float array -> t -> float array -> unit
(** [solve_with ~work t b] overwrites [b] with the solution, using the
    caller-supplied [work] buffer (length n) instead of the
    factorisation's own scratch — so a factorisation shared between
    domains stays read-only during solves.

    @raise Invalid_argument on a length mismatch. *)

val solve_in_place : t -> float array -> unit
(** Like {!solve} but overwrites [b] with the solution, avoiding
    allocation in the transient inner loop. *)

val solve_matrix : Matrix.t -> float array -> float array
(** One-shot convenience: factor then solve. *)
