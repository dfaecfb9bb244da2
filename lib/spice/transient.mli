(** Fixed-step transient integration of MNA systems by the trapezoidal
    rule.

    A system is compiled once into a {!pattern} (G ∪ C, slot by slot);
    each companion writes the iteration matrix and the explicit-side
    matrix (the scaled C) into it, optionally grown by a small set of
    {!stamps} (an edited wire), factors the former once with
    {!Numeric.Sparse} (refactored on G's plan when C adds no slot to
    G), and back-substitutes per step. A simulation costs one
    near-O(nnz) sparse factorisation (near-tree MNA patterns produce
    little fill), however many chunks it is run in, plus an O(nnz(C))
    product and back-substitution per step. With A = G + hC and
    h = 2/dt, a step is A·x' = (hC − G)·x + b(t) + b(t'), solved as
    A·y = 2hC·x + b(t) + b(t') and x' = y − x, since
    (hC − G)·x = 2hC·x − A·x; only C enters the product. The rule is
    second-order accurate.

    A companion lives for one callback ({!with_companion}): its
    factor, the filled values and the step loop's state, right-hand
    side and b(t) are the calling domain's buffers, reused by the next
    companion, so a companion and its steps allocate almost nothing.
    The loop keeps the state in the factor's column order and builds
    the right-hand side in its row order, so a step runs neither of the
    solve's permutations; it reads C through index arrays derived once
    per round from the plan's permutations, and evaluates b(t) at the
    source rows only. Every float operation is that of the plain
    sequence: b(t) as {!Mna.rhs_into} sums it, the product as
    {!Numeric.Sparse.Csc.mul_vec_into} sums it on the grown explicit
    side, and the permuting {!Numeric.Sparse.solve_with}.

    One step loop, {!loop}, hands each step's probe values to a
    callback; {!run} records them for waveforms. *)

type stamp = { i : int; j : int; value : float }
(** A resistor or capacitor between unknowns [i] and [j] ([-1] for
    ground), stamped as [Mna.build] does: [value] at (i,i) and (j,j),
    [-value] at (i,j) and (j,i). *)

type stamps = {
  added : int;  (** unknowns appended after the system's own *)
  g : stamp array;  (** conductance stamps, in stamping order *)
  c : stamp array;  (** capacitance stamps, in stamping order *)
}
(** Elements added on top of a built system (an edited wire), as plain
    data. The grown system's b(t) is the base b(t) zero-padded. *)

type chunk = {
  times : float array;  (** step times, starting after [t0] *)
  states : float array array;  (** recorded unknowns per step, probe-major *)
  final : float array;  (** full state at the last step *)
}

type companion
(** A system's factored iteration matrix for one timestep, plus the
    step loop's buffers: valid only inside the {!with_companion}
    callback that receives it. *)

type pattern
(** A system compiled once for all its companions: the union pattern
    of G and C with each slot's G and C source, and, when it was given
    one ({!with_plan}), the plan of G's factorisation with C's entries
    laid out in the plan's elimination order. Read-only: one pattern
    serves every worker domain. *)

val compile : Mna.t -> pattern
(** [compile sys] merges G's and C's columns, O(nnz). *)

val plannable : pattern -> bool
(** Whether C adds no slot to G (the union has as many slots as G, as
    on every lowered routing without inductance): then, and only then,
    G's plan reads the companion's slots, so only then is it worth
    building ({!Numeric.Sparse.try_factor_with_plan}). *)

val with_plan : pattern -> Numeric.Sparse.plan -> pattern
(** [with_plan p plan] keeps [plan], the plan of G's factorisation in
    the system's ordering, for every companion to refactor on, and lays
    out C's entries by the plan's pivot rows and column order for the
    step loop, O(nnz(C) + n).
    @raise Invalid_argument unless [plannable p]. *)

val system : pattern -> Mna.t

val assemble :
  ?stamps:stamps ->
  pattern ->
  dt:float ->
  Numeric.Sparse.Csc.t * Numeric.Sparse.Csc.t
(** The unfactored iteration matrix G′ + hC′ and explicit-side matrix
    2hC′ (h = 2/dt) that {!with_companion} factors and steps with, G′
    and C′ being the system's matrices grown by [stamps] (default
    none). Each slot of the pattern is written as the G and C values it
    stores; an entry the stamps touch sums the base entry when stored,
    then the stamps in order, left to right; a combined entry takes
    only the term of the operand that stores it; the explicit side
    scales C′'s entry by 2h; entries outside the pattern (appended
    unknowns) are added sorted; exact zeros are dropped. These are the
    float operations of stamping G′ and C′ as triplets and combining
    them entry by entry. The matrices are fresh, not buffers.

    @raise Invalid_argument on a non-positive [dt], a negative [added]
    or a stamp index outside -1 .. size + added - 1. *)

val with_companion :
  ?stamps:stamps ->
  pattern ->
  dt:float ->
  (companion -> 'a) ->
  ('a, int) result
(** [with_companion ?stamps p ~dt f] factors {!assemble}'s iteration
    matrix on the system's [sym] ordering, appended unknowns eliminated
    last, and is [Ok (f cp)] with [cp] that companion. With a plan the
    values are refactored on it without building the matrix
    ({!Numeric.Sparse.refactor}), bit-identical to a full
    factorisation, which runs when the plan declines or there is none.
    [cp] and everything read from it (its factor, {!loop}'s probe
    values) live in the calling domain's buffers: use them only inside
    [f]. A [with_companion] nested in [f] takes fresh buffers. [Error k]
    when the iteration matrix has no usable pivot, with
    {!Numeric.Sparse.try_factor}'s code [k]; [f] does not run.

    @raise Invalid_argument as {!assemble}. *)

val factor : companion -> Numeric.Sparse.t
(** The companion's factored iteration matrix (inside its callback
    only). *)

val loop :
  companion ->
  x0:float array ->
  t0:float ->
  steps:int ->
  probes:int array ->
  on_step:(float -> float array -> bool) ->
  float array * int
(** Integrates up to [steps] steps of the companion's dt from state
    [x0] at time [t0]; step [s] ends at t0 + (s+1)·dt. After each step
    [on_step t v] sees its time and the new state's value at each
    unknown listed in [probes] ([v.(i)] at [probes.(i)]; a buffer: read
    it, do not keep or mutate it); true ends the loop there. Returns
    the last state, fresh and in unknown order, and the steps taken,
    which also go to the always-live [spice.steps] counter.
    Continuation is exact: pass the state and t0 + taken·dt back in
    with the same companion.

    @raise Invalid_argument on non-positive [steps], a state-size
    mismatch or a probe outside the grown system. *)

val run :
  companion ->
  x0:float array ->
  t0:float ->
  steps:int ->
  probes:int array ->
  chunk
(** {!loop} over all [steps], recording the unknowns listed in
    [probes] ([chunk.states.(i).(s)] is probe [i] at step [s]).

    @raise Invalid_argument as {!loop}. *)
