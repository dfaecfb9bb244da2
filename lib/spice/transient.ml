module Csc = Numeric.Sparse.Csc

type method_ = Backward_euler | Trapezoidal

type chunk = {
  times : float array;
  states : float array array;
  final : float array;
}

let steps_counter = Obs.Counter.make "spice.steps"

let dc_operating_point (sys : Mna.t) =
  Numeric.Backend.solve (Mna.factor_g sys) (Mna.rhs sys 0.0)

type companion = {
  sys : Mna.t;
  method_ : method_;
  dt : float;
  lu : Numeric.Backend.t;
  explicit : Csc.t;
  (* b(t) at the two ends of a step, swapped after every step. *)
  mutable b_prev : float array;
  mutable b_next : float array;
}

let companion (sys : Mna.t) ~method_ ~dt =
  if dt <= 0.0 then invalid_arg "Transient.companion: dt must be positive";
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
  let n = sys.Mna.size in
  {
    sys;
    method_;
    dt;
    lu;
    explicit;
    b_prev = Array.make n 0.0;
    b_next = Array.make n 0.0;
  }

let run ?until cp ~x0 ~t0 ~steps ~probes =
  if steps <= 0 then invalid_arg "Transient.run: steps must be positive";
  let sys = cp.sys and dt = cp.dt in
  let n = sys.Mna.size in
  if Array.length x0 <> n then invalid_arg "Transient.run: state size mismatch";
  let num_probes = Array.length probes in
  let times = Array.make steps 0.0 in
  let states = Array.init num_probes (fun _ -> Array.make steps 0.0) in
  (* The state and the right-hand side trade places every step: the
     solve overwrites the right-hand side with the new state. *)
  let x = ref (Array.copy x0) and rhs = ref (Array.make n 0.0) in
  Mna.rhs_into sys t0 cp.b_prev;
  let taken = ref 0 and stop = ref false in
  while (not !stop) && !taken < steps do
    let s = !taken in
    let t' = t0 +. (float_of_int (s + 1) *. dt) in
    let b' = cp.b_next and r = !rhs in
    Mna.rhs_into sys t' b';
    Csc.mul_vec_into cp.explicit !x r;
    (match cp.method_ with
    | Backward_euler ->
        for i = 0 to n - 1 do
          Array.unsafe_set r i (Array.unsafe_get r i +. Array.unsafe_get b' i)
        done
    | Trapezoidal ->
        let bp = cp.b_prev in
        for i = 0 to n - 1 do
          Array.unsafe_set r i
            (Array.unsafe_get r i +. Array.unsafe_get bp i
            +. Array.unsafe_get b' i)
        done);
    Numeric.Backend.solve_in_place cp.lu r;
    rhs := !x;
    x := r;
    cp.b_next <- cp.b_prev;
    cp.b_prev <- b';
    times.(s) <- t';
    for p = 0 to num_probes - 1 do
      states.(p).(s) <- r.(probes.(p))
    done;
    taken := s + 1;
    match until with Some f -> stop := f r | None -> ()
  done;
  let taken = !taken in
  Obs.Counter.add steps_counter taken;
  if taken = steps then { times; states; final = !x }
  else
    {
      times = Array.sub times 0 taken;
      states = Array.map (fun col -> Array.sub col 0 taken) states;
      final = !x;
    }
