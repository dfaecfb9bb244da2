module Csc = Numeric.Sparse.Csc

type method_ = Backward_euler | Trapezoidal

type chunk = {
  times : float array;
  states : float array array;
  final : float array;
}

let dc_operating_point (sys : Mna.t) =
  Numeric.Backend.solve (Mna.factor_g sys) (sys.Mna.rhs 0.0)

let run (sys : Mna.t) ~method_ ~x0 ~t0 ~dt ~steps ~probes =
  if dt <= 0.0 then invalid_arg "Transient.run: dt must be positive";
  if steps <= 0 then invalid_arg "Transient.run: steps must be positive";
  if Array.length x0 <> sys.Mna.size then
    invalid_arg "Transient.run: state size mismatch";
  let n = sys.Mna.size in
  let g = sys.Mna.g_csc and c = sys.Mna.c_csc in
  (* Both sides are combined entry by entry in CSC, with the float
     operations of g_ij + h·c_ij and h·c_ij − g_ij (backward Euler's
     0·g_ij term adds nothing to h·c_ij); exact zeros are dropped, so
     the factored pattern is exactly the nonzeros. Its ordering is the
     precomputed G∪C one, whatever the timestep or method. *)
  let lhs, explicit =
    match method_ with
    | Backward_euler ->
        (* (G + C/h) x' = (C/h) x + b(t') *)
        let h = 1.0 /. dt in
        (Csc.lincomb 1.0 g h c, Csc.lincomb 0.0 g h c)
    | Trapezoidal ->
        (* (G + 2C/h) x' = (2C/h - G) x + b(t) + b(t') *)
        let h = 2.0 /. dt in
        (Csc.lincomb 1.0 g h c, Csc.lincomb (-1.0) g h c)
  in
  let lu = Numeric.Backend.factor ~symbolic:sys.Mna.lhs_sym lhs in
  let num_probes = Array.length probes in
  let times = Array.make steps 0.0 in
  let states = Array.init num_probes (fun _ -> Array.make steps 0.0) in
  let x = Array.copy x0 in
  let rhs = Array.make n 0.0 in
  let b_prev = ref (sys.Mna.rhs t0) in
  for s = 0 to steps - 1 do
    let t' = t0 +. (float_of_int (s + 1) *. dt) in
    let b' = sys.Mna.rhs t' in
    Csc.mul_vec_into explicit x rhs;
    (match method_ with
    | Backward_euler ->
        for i = 0 to n - 1 do
          Array.unsafe_set rhs i
            (Array.unsafe_get rhs i +. Array.unsafe_get b' i)
        done
    | Trapezoidal ->
        let bp = !b_prev in
        for i = 0 to n - 1 do
          Array.unsafe_set rhs i
            (Array.unsafe_get rhs i +. Array.unsafe_get bp i
            +. Array.unsafe_get b' i)
        done);
    Numeric.Backend.solve_in_place lu rhs;
    Array.blit rhs 0 x 0 n;
    b_prev := b';
    times.(s) <- t';
    for p = 0 to num_probes - 1 do
      states.(p).(s) <- x.(probes.(p))
    done
  done;
  { times; states; final = x }
