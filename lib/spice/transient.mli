(** Fixed-step transient integration of MNA systems.

    Both methods assemble the iteration matrix and the explicit-side
    matrix from the system's CSC G and C, factor the former once with
    {!Numeric.Backend} into a {!companion}, and back-substitute per
    step. A simulation costs one near-O(nnz) sparse factorisation
    (near-tree MNA patterns produce little fill), however many chunks
    it is run in, plus an O(nnz) product and back-substitution per
    step; the step loop allocates nothing but its recorded output:

    - backward Euler:  (G + C/h)·x' = (C/h)·x + b(t')
    - trapezoidal:     (G + 2C/h)·x' = (2C/h − G)·x + b(t) + b(t')

    Trapezoidal is second-order accurate and is the default everywhere;
    backward Euler is kept for its robustness to discontinuities and
    for convergence tests. *)

type method_ = Backward_euler | Trapezoidal

type chunk = {
  times : float array;  (** step times, starting after [t0] *)
  states : float array array;  (** recorded unknowns per step, probe-major *)
  final : float array;  (** full state at the last step *)
}

val dc_operating_point : Mna.t -> float array
(** Solves G·x = b(0): capacitors open, inductors shorted.

    @raise Numeric.Lu.Singular for a structurally defective circuit
    (e.g. a node with no DC path to ground). *)

type companion
(** A system's factored iteration matrix for one method and timestep,
    plus the step loop's buffers. Mutable scratch: use from one domain
    at a time. *)

val companion : Mna.t -> method_:method_ -> dt:float -> companion
(** Assemble and factor the companion system.

    @raise Invalid_argument on a non-positive [dt].
    @raise Numeric.Lu.Singular when the iteration matrix has no usable
    pivot. *)

val run :
  ?until:(float array -> bool) ->
  companion ->
  x0:float array ->
  t0:float ->
  steps:int ->
  probes:int array ->
  chunk
(** Integrates up to [steps] steps of the companion's [dt] from state
    [x0] at time [t0], recording the unknowns listed in [probes]
    ([chunk.states.(i).(s)] is probe [i] at step [s]; step [s] ends at
    t0 + (s+1)·dt). Continuation is exact: pass [final] and the last
    time back in, with the same companion, to extend a simulation.

    [until], when given, sees the full new state after every recorded
    step (a scratch buffer: read it, do not keep or mutate it). When it
    returns true the chunk ends at that step: [times] and [states] are
    the exact prefix an untruncated run would record, and [final] is
    that step's state. Adds the steps taken to the always-live
    [spice.steps] counter.

    @raise Invalid_argument on non-positive [steps] or a state-size
    mismatch. *)
