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

val solve_transpose_in_place : t -> float array -> unit
(** Solves A{^T} w = b in place — needed by the condition estimator.

    @raise Invalid_argument on a length mismatch. *)

val rcond : t -> float
(** Reciprocal condition number estimate 1 / (‖A‖₁ ‖A⁻¹‖₁) via Hager's
    1-norm estimator (a few extra solves; O(n²)). Values near 1 are
    well conditioned; values near the pivot threshold mean the
    factorisation, though it completed, should not be trusted. *)

val solve_matrix : Matrix.t -> float array -> float array
(** One-shot convenience: factor then solve. *)

(** Low-rank updates of a factored system via the
    Sherman–Morrison–Woodbury identity.

    An update represents M = [[A, 0], [0, 0]] + Σ αᵢ·uᵢ·vᵢᵀ over
    n₀ + pad unknowns, where A is the already-factored n₀×n₀ base and
    the [pad] extra unknowns (appended after every base unknown) start
    from an all-zero block that the rank-1 terms must make
    non-singular — exactly the shape of stamping one extra wire into a
    factored MNA matrix. Construction performs k extended base solves
    and factors the small k×k capacitance matrix S = C⁻¹ + VᵀA⁻¹U;
    each {!solve} is then O(n²), with no fresh full factorisation.

    Degeneracy is detected, not masked: {!make} returns [None] when the
    capacitance matrix fails to factor, when a pivot is tiny relative
    to the magnitudes summed into S (the Sherman–Morrison denominator
    cancelling — the updated matrix is numerically singular), or when
    its {!rcond} falls below [rcond_floor]. Callers fall back to a
    fresh factorisation through the usual [Nontree_error] retry path.

    A base factorisation may be shared across domains while updates
    solve against it (solves use private workspaces); a single
    [Update.t] value, however, is not itself domain-safe. *)
module Update : sig
  type lu := t

  type t
  (** A base factorisation extended with k rank-1 terms. *)

  val default_rcond_floor : float
  (** 1e-10. *)

  val make :
    ?pad:int ->
    ?rcond_floor:float ->
    lu ->
    (float * float array * float array) list ->
    t option
  (** [make ?pad base terms] builds the update; every [(α, u, v)] term
      is over the extended size and zero-α terms are dropped. [None]
      means the update is numerically degenerate — factor the full
      matrix instead. Counts each folded term under the
      [lu.rank1_updates] metric.

      @raise Invalid_argument on negative [pad] or a term whose
      vectors do not have length n₀ + pad. *)

  val make_with :
    ?pad:int ->
    ?rcond_floor:float ->
    n:int ->
    solve_with:(work:float array -> float array -> unit) ->
    (float * float array * float array) list ->
    t option
  (** Like {!make}, but over any base solver given as its size [n] and
      a workspace-threaded in-place solve — all the Woodbury algebra
      needs from the base. This is how {!Backend} extends a sparse base
      factorisation with rank-1 terms without duplicating the update
      machinery. *)

  val solve : t -> float array -> float array
  (** [solve u b] returns M⁻¹b (length n₀ + pad) by the Woodbury
      identity — two extended base solves' worth of work plus a k×k
      back-substitution.

      @raise Invalid_argument on a length mismatch. *)

  val rank : t -> int
  (** Number of rank-1 terms folded in (pad corrections included). *)

  val size : t -> int
  (** Extended system size n₀ + pad. *)
end
