(** Fixed-step transient integration of MNA systems by the trapezoidal
    rule.

    A system is compiled once into a {!pattern} (G ∪ C, slot by slot);
    each companion writes the iteration matrix and the explicit-side
    matrix (the scaled C) into it, optionally grown by a small set of
    {!stamps} (an edited wire), factors the former once with
    {!Numeric.Sparse} into a {!companion} (refactored on G's plan when
    C adds no slot to G), and
    back-substitutes per step. A simulation costs one near-O(nnz)
    sparse factorisation (near-tree MNA patterns produce little fill),
    however many chunks it is run in, plus an O(nnz(C)) product and
    back-substitution per step; a step allocates only the boxed time
    it hands to the callback. With A = G + hC and h = 2/dt, a step is
    A·x' = (hC − G)·x + b(t) + b(t'), solved as
    A·y = 2hC·x + b(t) + b(t') and x' = y − x, since
    (hC − G)·x = 2hC·x − A·x; only C enters the product. The rule is
    second-order accurate.

    One step loop, {!loop}, hands each new state to a callback; {!run}
    records probes over it for waveforms. *)

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
(** A system's factored iteration matrix for one timestep,
    plus the step loop's buffers. Mutable scratch: use from one domain
    at a time. *)

type pattern
(** A system compiled once for all its companions: the union pattern
    of G and C with each slot's G and C source, and, when that union is
    G's own pattern, the plan of G's factorisation. Read-only: one
    pattern serves every worker domain. *)

val compile : Mna.t -> plan:Numeric.Sparse.plan -> pattern
(** [compile sys ~plan] merges G's and C's columns, O(nnz). [plan] is
    the plan of G's factorisation in [sys]'s ordering
    ({!Numeric.Sparse.try_factor_with_plan}); the pattern keeps it only
    when the union has as many slots as G (C adds none, as on every
    lowered routing without inductance), since the plan reads G's slot
    positions. *)

val system : pattern -> Mna.t

val assemble :
  ?stamps:stamps ->
  pattern ->
  dt:float ->
  Numeric.Sparse.Csc.t * Numeric.Sparse.Csc.t
(** The unfactored iteration matrix G′ + hC′ and explicit-side matrix
    2hC′ (h = 2/dt) that {!companion} factors and steps with, G′ and C′
    being the system's matrices grown by [stamps] (default none). Each
    slot of the pattern is written as the G and C values it stores; an
    entry the stamps touch sums the base entry when stored, then the
    stamps in order, left to right; a combined entry takes only the
    term of the operand that stores it; the explicit side scales C′'s
    entry by 2h; entries outside the pattern (appended unknowns) are
    added sorted; exact zeros are dropped. These are the float
    operations of stamping G′ and C′ as triplets and combining them
    entry by entry.

    @raise Invalid_argument on a non-positive [dt], a negative [added]
    or a stamp index outside -1 .. size + added - 1. *)

val companion :
  ?stamps:stamps -> pattern -> dt:float -> (companion, int) result
(** Factor {!assemble}'s iteration matrix on the system's [sym]
    ordering, appended unknowns eliminated last. With a plan the values
    are refactored on it without building the matrix
    ({!Numeric.Sparse.refactor}), bit-identical to a full
    factorisation, which runs when the plan declines or there is none.
    [Error k] when the iteration matrix has no usable pivot, with
    {!Numeric.Sparse.try_factor}'s code [k].

    @raise Invalid_argument as {!assemble}. *)

val factor : companion -> Numeric.Sparse.t
(** The companion's factored iteration matrix. *)

val loop :
  companion ->
  x0:float array ->
  t0:float ->
  steps:int ->
  on_step:(float -> float array -> bool) ->
  float array * int
(** Integrates up to [steps] steps of the companion's dt from state
    [x0] at time [t0]; step [s] ends at t0 + (s+1)·dt. After each step
    [on_step t x] sees its time and the new state (a scratch buffer:
    read it, do not keep or mutate it); true ends the loop there.
    Returns the last state and the steps taken, which also go to the
    always-live [spice.steps] counter. Continuation is exact: pass the
    state and t0 + taken·dt back in with the same companion.

    @raise Invalid_argument on non-positive [steps] or a state-size
    mismatch. *)

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
