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
    nonzeros, not n³/n². A factorisation can also return its flat
    {!plan} (each step's reach and pivot, by position), on which later
    matrices of that pattern, grown by at most one appended unknown,
    refactor numerically, bit-identical to a full factorisation;
    anything the plan does not describe declines to the full kernel.
    Each domain factors in its own reused workspace, so a factorisation
    allocates little beyond the factor it returns, and a refactor can
    build even that into a caller's {!buffer}.

    This is the only factorisation the routing stack runs; the dense
    kernel in the tests' [lu.ml] is kept as a reference. A pivot smaller
    than 1e-13 times the largest input entry (or 1e-300 absolutely)
    yields [Error column], non-finite input entries [Error (-1)]. The
    floors are the dense kernel's, but on borderline matrices the two
    kernels can still disagree either way, because whether a pivot
    clears the floor depends on the pivot order. The verdict given here
    is final: there is no retry with another pivoting rule.

    Factorisations are tallied under the [sparse.factorizations] /
    [sparse.singular] / [sparse.nnz] counters, plans built under
    [sparse.plans], refactors under
    [sparse.refactors] / [sparse.refactor_fallbacks], and fill in the
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

  type entries = {
    len : int;  (** how many entries; the arrays may be longer *)
    cols : int array;
    rows : int array;
    vals : float array;
  }
  (** Entries outside a pattern, at (rows.(k), cols.(k)) with value
      vals.(k) for k below [len], sorted by column, then row. The
      arrays may be a caller's reused buffers. *)

  val no_entries : entries

  val union : t -> t -> t * int array * int array
  (** [union a b] is the union pattern of two n×n matrices (its values
      are zeros: a pattern, not a matrix) with each slot's index in
      [a]'s storage and in [b]'s, or -1 where that matrix stores
      nothing: one merge per column, done once so that later matrices
      of the pattern are written slot by slot.
      @raise Invalid_argument unless both are n×n. *)

  val grow : t -> float array -> n:int -> entries -> t
  (** [grow p values ~n e] is the n×n matrix (n at least [p]'s size)
      holding [values.(s)] in [p]'s slot [s] and [e]'s entries, with
      exact zeros dropped. It shares [p]'s pattern arrays (and takes
      [values], not a copy) when [e] is empty, [n] is [p]'s size and no
      value is zero.
      @raise Invalid_argument when [values] is shorter than [p]'s
      nonzeros, [n] is smaller than [p]'s size, an array of [e] is
      shorter than its [len], or [e]'s entries are unsorted, out of
      range or inside [p]'s pattern. *)

  val mul_vec_into : t -> float array -> float array -> unit
  (** [mul_vec_into t x out] overwrites [out] with t·x; each row's
      products are summed from 0.0 in ascending column order. O(nnz).
      @raise Invalid_argument on a length mismatch. *)

  val rows : t -> int
  val cols : t -> int
  val nnz : t -> int
end

(** Symbolic factorisation: the fill-reducing elimination order,
    computed once per sparsity pattern and reusable across every
    numeric factorisation of a same-sized system (the ordering is just a
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
  (** [extend s k] orders a system grown by [k > 0] unknowns, numbered
      [size s] to [size s + k - 1]: [s]'s order with the new unknowns
      appended, eliminated last in index order. No
      pattern is examined, so a system grown by a few appended
      unknowns keeps its base ordering instead of paying {!analyze}
      again. [extend s 0] is [s].
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
(** [try_factor csc] factors the matrix with the full kernel, running
    {!analyze} first unless [symbolic] provides the ordering. [Error k]
    reports the original column whose best available pivot fell below
    the threshold, [Error (-1)] a non-finite input entry.
    @raise Invalid_argument on a non-square matrix or a [symbolic] of
    the wrong size. *)

type plan
(** A factorisation compiled for numeric refactorisation: per step, the
    scatter of its column, the L-column updates in its reach's
    topological order, the threshold-pivot check and the L/U emits,
    all by position; and, recorded by the first plan run with an
    appended unknown (plain and resized companions never need them),
    each row's own reach through L's structure, from which an appended
    column's reach is merged instead of searched (Gilbert & Peierls
    1988). Shared by every worker domain: the one lazy record is
    atomic, and any domain's recording is the same. *)

val try_factor_with_plan :
  ?symbolic:Symbolic.t -> Csc.t -> (t * plan, int) result
(** {!try_factor}, also returning the factorisation's plan for matrices
    of the factored matrix's pattern: its order, each step's pivot row
    and its structural reach, the reach the factorisation would take if
    no entry had cancelled to an exact zero. A lowered
    routing's G plans every companion G + hC, since its C is diagonal
    (G's own floating tree cancels exactly at the driven node, the
    companion does not). *)

val plan_permutations : plan -> int array * int array
(** The planned factorisation's pivot rows and column order, as
    {!permutations} gives them: the permutations of every factor a
    plan run returns, extended by the appended unknown when there is
    one. Shared, not copied: do not mutate them. *)

type buffer
(** Factor arrays kept between refactors: a factor {!refactor} builds
    into a buffer lives in it until the buffer's next refactor. Mutable
    scratch: use from one domain at a time. *)

val buffer : unit -> buffer
(** An empty buffer; its arrays grow to the largest factor built. *)

val refactor :
  into:buffer -> plan -> float array -> n:int -> Csc.entries -> (t, int) result
(** [refactor plan values ~n e] factors the n×n matrix
    [Csc.grow pattern values ~n e] ([pattern] the planned matrix's) as
    {!try_factor} would on the plan's order with the appended unknowns
    eliminated last, and with the same verdict, bit for bit. With at
    most one appended unknown it runs the plan straight through: the
    appended row rides along as a non-pivotal row, and the appended
    column, eliminated last, takes the reach the depth-first search
    would, merged from its rows' reaches in the plan. A plan run's
    factor is built in [into], and valid only until [into]'s next
    refactor (a full factorisation's is fresh). It declines to the
    full kernel, counted under [sparse.refactor_fallbacks], when an
    input value is an exact zero, an entry of [e] lies outside the
    appended row and column, more than one unknown was appended, the
    appended row's value is not finite or reaches the base rows'
    maximum, the pivot rule picks another row than the plan's, or an
    L entry of the plan cancels to an exact zero. A plan run that
    gives the verdict counts under [sparse.refactors]; either way it
    counts once under [sparse.factorizations].
    @raise Invalid_argument when [values] is shorter than the
    pattern's nonzeros, [n] is smaller than the plan's size or an
    array of [e] is shorter than its [len], and (on the decline path)
    as {!Csc.grow}. *)

val size : t -> int

val factor_nnz : t -> int
(** Nonzeros of L + U, diagonal included — the fill the ordering was
    meant to contain. *)

type parts = {
  p : int array;  (** [p.(k)]: the original row pivotal at step [k] *)
  q : int array;  (** [q.(k)]: the original column eliminated at step [k] *)
  udiag : float array;  (** U's diagonal, by step *)
  l : (int * float) array array;
      (** per step, L's strictly lower entries as (step of the row,
          value), in storage order *)
  u : (int * float) array array;  (** U's strictly upper entries, likewise *)
}

val parts : t -> parts
(** A copy of the factors, for comparing two factorisations. *)

val permutations : t -> int array * int array
(** [(p, q)]: [p.(k)] the original row pivotal at step [k], [q.(k)] the
    original column eliminated at step [k]. The factor's own arrays,
    not copies: do not mutate them. *)

val solve_ordered : t -> float array -> unit
(** [solve_ordered t y] solves in elimination order, without the
    permutations: on entry y.(k) holds b.(p.(k)), on exit y.(k) holds
    (A⁻¹b).(q.(k)), with the float operations of {!solve_with}. Entries
    of [y] past n are left alone. O(nnz(L+U)), no allocation.
    @raise Invalid_argument when [y] is shorter than n. *)

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
  work:float array -> z:float array -> t -> int -> int -> float -> float
(** [with_conductance ~work ~z f i j g] prepares the correction of
    solves against the factored matrix A into solves against A plus one
    conductance [g] between unknowns [i] and [j], i.e. A + g·w·wᵀ with
    w = e{_i} − e{_j}, by Sherman–Morrison: one solve against [f] writes
    z = A⁻¹w into [z] (length n, overwritten), and the result is the
    denominator s = 1/g + wᵀz. {!apply_conductance} with that [z] and
    [s] then corrects any x = A⁻¹b in O(n) and no solve. So a
    right-hand side shared by many conductance changes is solved
    against [f] once. No full matrix is factored. [f] stays read-only:
    the one solve runs in the caller's [work] (length at least n), as
    {!solve_with}'s do, so a factorisation shared between domains may
    be updated from each of them, one workspace per domain.

    A nan result means the updated matrix is numerically singular: [g]
    is not finite, or s is not finite, zero, or below 1e-10 of
    max(|1/g|, |wᵀA⁻¹w|). Counts one [lu.rank1_updates] per finite
    [g].

    @raise Invalid_argument when [i] or [j] is out of range, [i = j],
    [work] is shorter than n or [z] is not of length n. *)

val apply_conductance :
  z:float array -> int -> int -> float -> float array -> unit
(** [apply_conductance ~z i j s x] overwrites the first n entries of
    x = A⁻¹b with (A + g·w·wᵀ)⁻¹b, given the [z] and the non-nan [s]
    that {!with_conductance}[ ~z f i j g] left: x − z·(x{_i} − x{_j})/s,
    where n is [z]'s length. Entries of [x] past n are left alone; keep
    [z] untouched between the two calls.

    @raise Invalid_argument when [x] is shorter than n. *)
