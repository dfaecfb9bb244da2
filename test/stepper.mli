(** The reference trapezoidal stepper: the step loop as the library ran
    it before it kept the state in elimination order. Each step
    evaluates b(t′) with [Spice.Mna.rhs_into] over the whole state,
    forms 2hC′·x with [Csc.mul_vec_into] on the explicit side, adds
    b(t) + b(t′) row by row, and solves with the permuting
    [Sparse.solve]. *)

val run :
  Spice.Mna.t ->
  Numeric.Sparse.t ->
  Numeric.Sparse.Csc.t ->
  dt:float ->
  x0:float array ->
  t0:float ->
  steps:int ->
  float array * float array array
(** [run sys lu rhs ~dt ~x0 ~t0 ~steps]: [steps] steps of [dt] from
    [x0] at [t0], with [lu] the factored iteration matrix and [rhs] the
    explicit side 2hC′ of [sys] grown to [x0]'s length. Returns the
    step times and each step's full state. *)
