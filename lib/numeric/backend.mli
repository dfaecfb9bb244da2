(** Factorisation of full MNA and moment systems.

    Every such system is stored as a CSC matrix ({!Sparse.Csc}) and
    factored by the sparse kernel ({!Sparse}). When threshold partial
    pivoting gives up on a borderline matrix, {!try_factor} retries
    with the dense kernel ({!Lu}) on a dense image built for that one
    call: dense full partial pivoting is the authority on singularity,
    so a system is reported singular exactly when {!Lu} would report
    it singular. Fallbacks are tallied under [sparse.dense_fallbacks].

    Factorisations are domain-safe to share read-only; per-domain
    solves should thread private workspaces via {!solve_with}. *)

type t
(** A sparse factorisation, or a dense one after a pivot fallback. *)

val try_factor : ?symbolic:Sparse.Symbolic.t -> Sparse.Csc.t -> (t, int) result
(** Factor a matrix. [symbolic] supplies a precomputed fill-reducing
    ordering (see {!Sparse.analyze}); without it one is computed.
    Error codes are those of {!Lu.try_factor}: [Error k] a pivot
    column, [Error (-1)] a non-finite entry.

    @raise Invalid_argument when the matrix is not square or [symbolic]
    has the wrong size. *)

val factor : ?symbolic:Sparse.Symbolic.t -> Sparse.Csc.t -> t
(** @raise Lu.Singular when no usable pivot exists. *)

val size : t -> int
val solve : t -> float array -> float array
val solve_in_place : t -> float array -> unit

val solve_with : work:float array -> t -> float array -> unit
(** In-place solve with a caller-supplied intermediate buffer (length
    n), keeping a shared factorisation read-only. *)

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
