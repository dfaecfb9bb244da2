(** Fixed-step transient integration of MNA systems.

    Both methods assemble the iteration matrix and the explicit-side
    matrix from the system's CSC G and C, factor the former once with
    {!Numeric.Backend} and back-substitute per step. A simulation costs
    one near-O(nnz) sparse factorisation (near-tree MNA patterns
    produce little fill) plus an O(nnz) product and back-substitution
    per step:

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

val run :
  Mna.t ->
  method_:method_ ->
  x0:float array ->
  t0:float ->
  dt:float ->
  steps:int ->
  probes:int array ->
  chunk
(** Integrates [steps] steps of size [dt] from state [x0] at time [t0],
    recording the unknowns listed in [probes] ([chunk.states.(i).(s)]
    is probe [i] at step [s]). Continuation is exact: pass [final] and
    the last time back in to extend a simulation.

    @raise Invalid_argument on non-positive [dt] or [steps], or a
    state-size mismatch. *)
