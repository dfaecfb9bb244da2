module Csc = Numeric.Sparse.Csc

type stamp = { i : int; j : int; value : float }
type stamps = { added : int; g : stamp array; c : stamp array }

let no_stamps = { added = 0; g = [||]; c = [||] }

type chunk = {
  times : float array;
  states : float array array;
  final : float array;
}

let steps_counter = Obs.Counter.make "spice.steps"

let dc_operating_point (sys : Mna.t) =
  Numeric.Sparse.solve (Mna.factor_g sys) (Mna.rhs sys 0.0)

type companion = {
  sys : Mna.t;
  size : int;
  dt : float;
  lu : Numeric.Sparse.t;
  c_scaled : Csc.t;  (* the explicit side, 2hC′ *)
  (* b(t) at the two ends of a step, swapped after every step. *)
  mutable b_prev : float array;
  mutable b_next : float array;
}

(* Two-terminal stamps as matrix entries, the way [Mna.build] stamps a
   resistor or capacitor (the value at (i,i) and (j,j), its negation at
   (i,j) and (j,i), ground skipped), keyed col·size + row and sorted
   stably by key: entries at one position keep stamping order. *)
let expand ~size stamps =
  let keys = Array.make (4 * Array.length stamps) 0 in
  let vals = Array.make (4 * Array.length stamps) 0.0 in
  let len = ref 0 in
  let push r c v =
    let key = (c * size) + r and p = ref !len in
    while !p > 0 && keys.(!p - 1) > key do
      keys.(!p) <- keys.(!p - 1);
      vals.(!p) <- vals.(!p - 1);
      decr p
    done;
    keys.(!p) <- key;
    vals.(!p) <- v;
    incr len
  in
  Array.iter
    (fun { i; j; value } ->
      if i < -1 || i >= size || j < -1 || j >= size then
        invalid_arg "Transient.assemble: stamp index out of range";
      if i >= 0 then push i i value;
      if j >= 0 then push j j value;
      if i >= 0 && j >= 0 then begin
        push i j (-.value);
        push j i (-.value)
      end)
    stamps;
  (keys, vals, !len)

(* One pass over the columns writes G' + h·C' and 2h·C'; see [assemble]
   for how each entry sums. *)
let combine (sys : Mna.t) stamps ~h =
  let s = 2.0 *. h in
  let n = sys.Mna.size in
  let nt = n + stamps.added in
  let g = sys.Mna.g_csc and c = sys.Mna.c_csc in
  let gk, gv, gn = expand ~size:nt stamps.g in
  let ck, cv, cn = expand ~size:nt stamps.c in
  let make cap =
    let cap = max 1 cap in
    (Array.make (nt + 1) 0, Array.make cap 0, Array.make cap 0.0)
  in
  let ((colptr, rowind, values) as lhs) =
    make (Csc.nnz g + Csc.nnz c + gn + cn)
  in
  let ((colptr', rowind', values') as rhs) = make (Csc.nnz c + cn) in
  let out = ref 0 and out' = ref 0 in
  let sg = ref 0 and sc = ref 0 in
  let grow = g.Csc.rowind and gval = g.Csc.values in
  let crow = c.Csc.rowind and cval = c.Csc.values in
  for j = 0 to nt - 1 do
    colptr.(j) <- !out;
    colptr'.(j) <- !out';
    (* Cursors: base G and C column j, then its stamp entries, whose
       keys run from j·nt (row 0) to below (j+1)·nt. *)
    let p = ref (if j < n then g.Csc.colptr.(j) else 0) in
    let pe = if j < n then g.Csc.colptr.(j + 1) else 0 in
    let q = ref (if j < n then c.Csc.colptr.(j) else 0) in
    let qe = if j < n then c.Csc.colptr.(j + 1) else 0 in
    let col = j * nt in
    let ge = ref !sg and ce = ref !sc in
    while !ge < gn && gk.(!ge) < col + nt do incr ge done;
    while !ce < cn && ck.(!ce) < col + nt do incr ce done;
    while !p < pe || !q < qe || !sg < !ge || !sc < !ce do
      let r = if !p < pe then grow.(!p) else max_int in
      let r = if !sg < !ge then min r (gk.(!sg) - col) else r in
      let r = if !q < qe then min r crow.(!q) else r in
      let r = if !sc < !ce then min r (ck.(!sc) - col) else r in
      let has_g = ref false and gx = ref 0.0 in
      if !p < pe && grow.(!p) = r then begin
        has_g := true;
        gx := gval.(!p);
        incr p
      end;
      while !sg < !ge && gk.(!sg) = col + r do
        gx := if !has_g then !gx +. gv.(!sg) else gv.(!sg);
        has_g := true;
        incr sg
      done;
      let has_c = ref false and cx = ref 0.0 in
      if !q < qe && crow.(!q) = r then begin
        has_c := true;
        cx := cval.(!q);
        incr q
      end;
      while !sc < !ce && ck.(!sc) = col + r do
        cx := if !has_c then !cx +. cv.(!sc) else cv.(!sc);
        has_c := true;
        incr sc
      done;
      let v =
        if !has_g && !has_c then !gx +. (h *. !cx)
        else if !has_g then !gx
        else h *. !cx
      and v' = if !has_c then s *. !cx else 0.0 in
      if v <> 0.0 then begin
        rowind.(!out) <- r;
        values.(!out) <- v;
        incr out
      end;
      if v' <> 0.0 then begin
        rowind'.(!out') <- r;
        values'.(!out') <- v';
        incr out'
      end
    done
  done;
  colptr.(nt) <- !out;
  colptr'.(nt) <- !out';
  let csc (colptr, rowind, values) =
    Csc.of_columns ~n:nt ~colptr ~rowind ~values
  in
  (csc lhs, csc rhs)

let assemble ?(stamps = no_stamps) (sys : Mna.t) ~dt =
  if dt <= 0.0 then invalid_arg "Transient.assemble: dt must be positive";
  if stamps.added < 0 then
    invalid_arg "Transient.assemble: negative appended unknowns";
  (* (G + hC) x' = (hC - G) x + b(t) + b(t') with h = 2/dt, which is
     (G + hC)(x' + x) = 2hC x + b(t) + b(t'). *)
  combine sys stamps ~h:(2.0 /. dt)

let companion ?(stamps = no_stamps) (sys : Mna.t) ~dt =
  let lhs, c_scaled = assemble ~stamps sys ~dt in
  (* The precomputed G∪C ordering, whatever the timestep;
     appended unknowns are eliminated last. A recorded [sym] (an
     incremental round's G) makes this a numeric-only refactor. *)
  let symbolic = Numeric.Sparse.Symbolic.extend sys.Mna.sym stamps.added in
  let lu = Numeric.Sparse.factor ~symbolic lhs in
  let size = sys.Mna.size + stamps.added in
  let b_prev = Array.make size 0.0 and b_next = Array.make size 0.0 in
  { sys; size; dt; lu; c_scaled; b_prev; b_next }

let loop cp ~x0 ~t0 ~steps ~on_step =
  if steps <= 0 then invalid_arg "Transient.loop: steps must be positive";
  let n = cp.size and dt = cp.dt in
  if Array.length x0 <> n then invalid_arg "Transient.loop: state size mismatch";
  (* The state and the right-hand side trade places every step: the
     solve overwrites the right-hand side with the new state. *)
  let x = ref (Array.copy x0) and rhs = ref (Array.make n 0.0) in
  Mna.rhs_into cp.sys t0 cp.b_prev;
  let taken = ref 0 and stop = ref false in
  while (not !stop) && !taken < steps do
    let s = !taken in
    let t' = t0 +. (float_of_int (s + 1) *. dt) in
    let b' = cp.b_next and r = !rhs in
    Mna.rhs_into cp.sys t' b';
    Csc.mul_vec_into cp.c_scaled !x r;
    let bp = cp.b_prev in
    for i = 0 to n - 1 do
      Array.unsafe_set r i
        (Array.unsafe_get r i +. Array.unsafe_get bp i +. Array.unsafe_get b' i)
    done;
    Numeric.Sparse.solve_in_place cp.lu r;
    (* The solve gave x' + x. *)
    let prev = !x in
    for i = 0 to n - 1 do
      Array.unsafe_set r i (Array.unsafe_get r i -. Array.unsafe_get prev i)
    done;
    rhs := prev;
    x := r;
    cp.b_next <- cp.b_prev;
    cp.b_prev <- b';
    taken := s + 1;
    stop := on_step t' r
  done;
  Obs.Counter.add steps_counter !taken;
  (!x, !taken)

let run cp ~x0 ~t0 ~steps ~probes =
  (* A non-positive [steps] gets empty arrays here; [loop] rejects it. *)
  let recorded = max steps 0 in
  let times = Array.make recorded 0.0 in
  let states = Array.map (fun _ -> Array.make recorded 0.0) probes in
  let s = ref 0 in
  let final, _ =
    loop cp ~x0 ~t0 ~steps ~on_step:(fun t x ->
        times.(!s) <- t;
        Array.iteri (fun p u -> states.(p).(!s) <- x.(u)) probes;
        incr s;
        false)
  in
  { times; states; final }
