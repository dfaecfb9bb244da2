(** Sparse linear algebra: CSC matrices, fill-reducing ordering, LU.

    The MNA systems this repository factors are lumped distributed-RC
    routing nets — a spanning tree plus a handful of chord edges — so
    their conductance matrices carry O(n) nonzeros while a dense LU
    pays O(n³) to factor and O(n²) per solve. This module is the
    sparse counterpart: compressed sparse column storage built from
    triplet stamps, a reverse Cuthill–McKee fill-reducing ordering
    (reusable across factorisations of the same pattern), and a
    left-looking (Gilbert–Peierls) LU with threshold partial pivoting
    whose factor and solve costs are proportional to the factor
    nonzeros, not n³/n².

    This is the only factorisation the routing stack runs; the dense
    kernel in [lu.ml] is kept as a reference for tests. A pivot smaller
    than 1e-13 times the largest input entry (or 1e-300 absolutely)
    yields [Error column], non-finite input entries [Error (-1)]. The
    floors are the dense kernel's, but on borderline matrices the two
    kernels can still disagree either way, because whether a pivot
    clears the floor depends on the pivot order. The verdict given here
    is final: there is no retry with another pivoting rule.

    Factorisations are tallied under the [sparse.factorizations] /
    [sparse.singular] / [sparse.nnz] counters and the
    [sparse.fill_ratio] histogram on the {!Obs} registry. *)

(** Triplet (coordinate-form) accumulation: the natural output of MNA
    stamping. Entries are recorded in insertion order; duplicates are
    allowed and sum. *)
module Triplets : sig
  type t

  val create : ?capacity:int -> unit -> t
  val length : t -> int

  val add : t -> int -> int -> float -> unit
  (** [add t i j v] records a stamp of [v] at (row [i], column [j]).
      @raise Invalid_argument on a negative index. *)

  val iter : t -> (int -> int -> float -> unit) -> unit
  (** Iterate the stamps in insertion order. *)
end

(** Compressed sparse column matrices: per-column sorted, duplicate-free
    row indices. *)
module Csc : sig
  type t = private {
    rows : int;
    cols : int;
    colptr : int array;  (** length [cols + 1]; column j is
                             [colptr.(j)] to [colptr.(j+1) - 1] *)
    rowind : int array;  (** row indices, ascending within a column *)
    values : float array;
  }
  (** Readable, so assembly loops can merge columns directly; built
      only through the constructors below. *)

  val of_triplets : n:int -> Triplets.t -> t
  (** [of_triplets ~n t] is the n×n matrix with duplicate stamps
      summed in insertion order, so an entry's value does not depend
      on how stamps of other entries interleave. Exact zeros arising
      from stamp values are kept in the pattern.
      @raise Invalid_argument on a negative [n] or an index ≥ [n]. *)

  val of_matrix : Matrix.t -> t
  (** The nonzero entries of a dense matrix. *)

  val to_matrix : t -> Matrix.t
  (** The dense image, for AC analysis and tests. *)

  val of_columns :
    n:int -> colptr:int array -> rowind:int array -> values:float array -> t
  (** The n×n matrix whose column j holds rows [rowind.(p)] with values
      [values.(p)] for [p] from [colptr.(j)] to [colptr.(j+1) - 1]. The
      arrays are taken, not copied; [rowind] and [values] may be longer
      than [colptr.(n)].
      @raise Invalid_argument unless [colptr] has length n+1, starts at
      0 and never decreases, and each column's rows ascend strictly
      within 0..n-1. *)

  val mul_vec_into : t -> float array -> float array -> unit
  (** [mul_vec_into t x out] overwrites [out] with t·x; each row's
      products are summed from 0.0 in ascending column order. O(nnz).
      @raise Invalid_argument on a length mismatch. *)

  val rows : t -> int
  val cols : t -> int
  val nnz : t -> int
end

(** Symbolic analysis: the fill-reducing elimination order, computed
    once per sparsity pattern and reusable across every numeric
    factorisation of a same-sized system (the ordering is just a
    column permutation, so reuse is safe — merely suboptimal — even if
    the pattern has drifted). *)
module Symbolic : sig
  type t

  val order : t -> int array
  (** A copy of the elimination (column) order: [order.(k)] is the
      original column eliminated at step [k]. Always a permutation of
      0..n-1. *)

  val size : t -> int

  val extend : t -> int -> t
  (** [extend s k] orders a system grown by [k] unknowns, numbered
      [size s] to [size s + k - 1]: [s]'s order with the new unknowns
      appended, eliminated last in index order. No pattern is
      examined, so a system grown by a few appended unknowns keeps
      its base ordering instead of paying {!analyze} again.
      @raise Invalid_argument on a negative [k]. *)
end

val analyze : Csc.t -> Symbolic.t
(** Reverse Cuthill–McKee ordering on the symmetrised pattern of the
    matrix, component by component from pseudo-peripheral start
    vertices. O(nnz log nnz).
    @raise Invalid_argument on a non-square matrix. *)

type t
(** A sparse factorisation PAQ = LU: Q the fill-reducing column order,
    P chosen by threshold partial pivoting (a pivot within a factor
    0.1 of the column maximum keeps the diagonal choice; otherwise the
    largest entry wins). *)

val try_factor : ?symbolic:Symbolic.t -> Csc.t -> (t, int) result
(** [try_factor csc] factors the matrix, running {!analyze} first
    unless [symbolic] provides the ordering. [Error k] reports the
    original column whose best available pivot fell below the
    threshold, [Error (-1)] a non-finite input entry.
    @raise Invalid_argument on a non-square matrix or a [symbolic] of
    the wrong size. *)

exception Singular of int
(** Raised by {!factor} with {!try_factor}'s error code: the pivot
    column, or [-1] for a non-finite input entry. A singular MNA or
    moment system means a malformed circuit, e.g. a floating node. *)

val factor : ?symbolic:Symbolic.t -> Csc.t -> t
(** {!try_factor}, raising.
    @raise Singular when no usable pivot exists. *)

val size : t -> int

val factor_nnz : t -> int
(** Nonzeros of L + U, diagonal included — the fill the ordering was
    meant to contain. *)

val solve_with : work:float array -> t -> float array -> unit
(** [solve_with ~work t b] overwrites [b] with A⁻¹b, using [work]
    (length n) as the intermediate buffer so a factorisation shared
    between domains stays read-only during solves. O(nnz(L+U)).
    @raise Invalid_argument on a length mismatch. *)

val solve_in_place : t -> float array -> unit
(** {!solve_with} using the factorisation's own scratch buffer (not
    domain-safe; one caller at a time). *)

val solve : t -> float array -> float array

val with_conductance :
  t -> int -> int -> float -> (float array -> float array) option
(** [with_conductance f i j g] is a solver for the factored matrix A
    plus one conductance [g] between unknowns [i] and [j], i.e.
    A + g·w·wᵀ with w = e{_i} − e{_j}, by Sherman–Morrison: one solve
    against [f] builds it, each call then costs one more solve and
    O(n). No full matrix is factored. [f] stays read-only: the solver
    carries its own workspace, so a factorisation shared between
    domains may be updated from each of them, one solver per domain.

    [None] means the updated matrix is numerically singular: [g] is
    not finite, or the Sherman–Morrison denominator s = 1/g + wᵀA⁻¹w
    is not finite, zero, or below 1e-10 of max(|1/g|, |wᵀA⁻¹w|).
    Counts one [lu.rank1_updates] per finite [g].

    @raise Invalid_argument when [i] or [j] is out of range or
    [i = j]. *)
