(** Fixed-step transient integration of MNA systems.

    Both methods assemble the iteration matrix and the explicit-side
    matrix in one pass over the system's CSC G and C, optionally grown
    by a small set of {!stamps} (an edited wire), factor the former
    once with {!Numeric.Sparse} into a {!companion}, and
    back-substitute per step. A simulation costs one near-O(nnz) sparse
    factorisation (near-tree MNA patterns produce little fill), however
    many chunks it is run in, plus an O(nnz) product and
    back-substitution per step; a step allocates only the boxed time
    it hands to the callback:

    - backward Euler:  (G + C/h)·x' = (C/h)·x + b(t')
    - trapezoidal:     (G + 2C/h)·x' = (2C/h − G)·x + b(t) + b(t')

    One step loop, {!loop}, hands each new state to a callback; {!run}
    records probes over it for waveforms.

    Trapezoidal is second-order accurate and is the default everywhere;
    backward Euler is kept for its robustness to discontinuities and
    for convergence tests. *)

type method_ = Backward_euler | Trapezoidal

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

val dc_operating_point : Mna.t -> float array
(** Solves G·x = b(0): capacitors open, inductors shorted.

    @raise Numeric.Sparse.Singular for a structurally defective circuit
    (e.g. a node with no DC path to ground). *)

type companion
(** A system's factored iteration matrix for one method and timestep,
    plus the step loop's buffers. Mutable scratch: use from one domain
    at a time. *)

val assemble :
  ?stamps:stamps ->
  Mna.t ->
  method_:method_ ->
  dt:float ->
  Numeric.Sparse.Csc.t * Numeric.Sparse.Csc.t
(** The unfactored iteration matrix G′ + hC′ and explicit-side matrix
    hC′ − G′ (hC′ for backward Euler; h = 2/dt trapezoidal, 1/dt
    backward Euler), G′ and C′ being the system's matrices grown by
    [stamps] (default none), both written in one pass over the columns.
    Each entry of G′ (likewise C′) is the base entry when stored, then
    the stamps in order, summed left to right; a combined entry takes
    only the term of the operand that stores it; exact zeros are
    dropped. These are the float operations of stamping G′ and C′ as
    triplets and combining them entry by entry.

    @raise Invalid_argument on a non-positive [dt], a negative [added]
    or a stamp index outside -1 .. size + added - 1. *)

val companion :
  ?stamps:stamps -> Mna.t -> method_:method_ -> dt:float -> companion
(** Factor {!assemble}'s iteration matrix on the system's [sym]
    ordering, appended unknowns eliminated last.

    @raise Invalid_argument as {!assemble}.
    @raise Numeric.Sparse.Singular when the iteration matrix has no usable
    pivot. *)

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
