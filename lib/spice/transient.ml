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

type pattern = {
  base : Mna.t;
  lhs : Csc.t;  (* the union pattern of G and C *)
  gsrc : int array;  (* per slot: its index in G's storage, or -1 *)
  csrc : int array;  (* likewise in C's *)
  plan : Numeric.Sparse.plan option;
}

let compile (sys : Mna.t) ~plan =
  let lhs, gsrc, csrc = Csc.union sys.Mna.g_csc sys.Mna.c_csc in
  (* G's plan reads the slots of G's pattern, which is the union's
     only when C adds no slot: the union holds G, so equal counts mean
     equal patterns. *)
  let plan =
    if Csc.nnz lhs = Csc.nnz sys.Mna.g_csc then Some plan else None
  in
  { base = sys; lhs; gsrc; csrc; plan }

let system p = p.base

(* The entries a stamp set touches, in order of first touch: each
   position's slot in the pattern (or -1 outside it), its key
   col·size + row, and its G and C sums, each started from the base
   value when the pattern stores one and taking the stamps in stamping
   order. One per domain, reused: a fill runs on one domain and does
   not keep it. *)
type touched = {
  mutable len : int;
  mutable slot : int array;
  mutable key : int array;
  mutable gx : float array;
  mutable cx : float array;
  mutable has_g : bool array;
  mutable has_c : bool array;
}

let touched_key =
  Domain.DLS.new_key (fun () ->
      { len = 0; slot = [||]; key = [||]; gx = [||]; cx = [||]; has_g = [||];
        has_c = [||] })

let touch p (stamps : stamps) ~nt =
  let n = p.base.Mna.size in
  let t = Domain.DLS.get touched_key in
  let cap = 4 * (Array.length stamps.g + Array.length stamps.c) in
  if Array.length t.slot < cap then begin
    t.slot <- Array.make cap 0;
    t.key <- Array.make cap 0;
    t.gx <- Array.make cap 0.0;
    t.cx <- Array.make cap 0.0;
    t.has_g <- Array.make cap false;
    t.has_c <- Array.make cap false
  end;
  t.len <- 0;
  let gval = p.base.Mna.g_csc.Csc.values in
  let cval = p.base.Mna.c_csc.Csc.values in
  let colptr = p.lhs.Csc.colptr and rowind = p.lhs.Csc.rowind in
  let find r c =
    let key = (c * nt) + r in
    let k = ref 0 in
    while !k < t.len && t.key.(!k) <> key do incr k done;
    if !k < t.len then !k
    else begin
      let s =
        if r < n && c < n then begin
          let s = ref colptr.(c) and hi = colptr.(c + 1) in
          while !s < hi && rowind.(!s) <> r do incr s done;
          if !s < hi then !s else -1
        end
        else -1
      in
      let k = t.len in
      t.len <- k + 1;
      t.slot.(k) <- s;
      t.key.(k) <- key;
      let gs = if s >= 0 then p.gsrc.(s) else -1 in
      let cs = if s >= 0 then p.csrc.(s) else -1 in
      t.has_g.(k) <- gs >= 0;
      t.gx.(k) <- (if gs >= 0 then gval.(gs) else 0.0);
      t.has_c.(k) <- cs >= 0;
      t.cx.(k) <- (if cs >= 0 then cval.(cs) else 0.0);
      k
    end
  in
  let add sums has r c v =
    let k = find r c in
    sums.(k) <- (if has.(k) then sums.(k) +. v else v);
    has.(k) <- true
  in
  (* A two-terminal element as [Mna.build] stamps it: the value at
     (i,i) and (j,j), its negation at (i,j) and (j,i), ground
     skipped. *)
  let stamp sums has { i; j; value } =
    if i < -1 || i >= nt || j < -1 || j >= nt then
      invalid_arg "Transient.assemble: stamp index out of range";
    if i >= 0 then add sums has i i value;
    if j >= 0 then add sums has j j value;
    if i >= 0 && j >= 0 then begin
      add sums has i j (-.value);
      add sums has j i (-.value)
    end
  in
  Array.iter (stamp t.gx t.has_g) stamps.g;
  Array.iter (stamp t.cx t.has_c) stamps.c;
  t

(* A combined entry takes only the term of the operand that stores
   it. *)
let combine ~h ~has_g gx ~has_c cx =
  if has_g && has_c then gx +. (h *. cx) else if has_g then gx else h *. cx

(* The touched positions outside a pattern — outside G ∪ C for the
   iteration matrix, valued G′ + hC′; outside C for the explicit side,
   valued 2hC′ — sorted by key (few: an edited wire's appended
   unknowns). *)
let entries p t ~nt ~h ~explicit =
  let outside k =
    if explicit then
      t.has_c.(k) && (t.slot.(k) < 0 || p.csrc.(t.slot.(k)) < 0)
    else t.slot.(k) < 0
  in
  let m = ref 0 in
  for k = 0 to t.len - 1 do
    if outside k then incr m
  done;
  if !m = 0 then Csc.no_entries
  else begin
    let ks = Array.make !m 0 and m = ref 0 in
    for k = 0 to t.len - 1 do
      if outside k then begin
        let s = ref !m in
        while !s > 0 && t.key.(ks.(!s - 1)) > t.key.(k) do
          ks.(!s) <- ks.(!s - 1);
          decr s
        done;
        ks.(!s) <- k;
        incr m
      end
    done;
    let value k =
      if explicit then 2.0 *. h *. t.cx.(k)
      else combine ~h ~has_g:t.has_g.(k) t.gx.(k) ~has_c:t.has_c.(k) t.cx.(k)
    in
    {
      Csc.cols = Array.map (fun k -> t.key.(k) / nt) ks;
      rows = Array.map (fun k -> t.key.(k) mod nt) ks;
      vals = Array.map value ks;
    }
  end

(* One companion's values: the iteration matrix G′ + hC′ slot by slot
   of the pattern, the explicit side 2hC′ slot by slot of C, and the
   entries of either outside its pattern. *)
type filled = {
  nt : int;
  lhs_values : float array;
  lhs_extra : Csc.entries;
  rhs_values : float array;
  rhs_extra : Csc.entries;
}

let fill ?(stamps = no_stamps) p ~dt =
  if dt <= 0.0 then invalid_arg "Transient.assemble: dt must be positive";
  if stamps.added < 0 then
    invalid_arg "Transient.assemble: negative appended unknowns";
  (* (G + hC) x' = (hC - G) x + b(t) + b(t') with h = 2/dt, which is
     (G + hC)(x' + x) = 2hC x + b(t) + b(t'). *)
  let h = 2.0 /. dt in
  let s = 2.0 *. h in
  let nt = p.base.Mna.size + stamps.added in
  let gval = p.base.Mna.g_csc.Csc.values in
  let cval = p.base.Mna.c_csc.Csc.values in
  let nz = Csc.nnz p.lhs in
  let lhs_values = Array.make (max nz 1) 0.0 in
  for k = 0 to nz - 1 do
    let gs = p.gsrc.(k) and cs = p.csrc.(k) in
    lhs_values.(k) <-
      (if gs < 0 then h *. cval.(cs)
       else if cs < 0 then gval.(gs)
       else gval.(gs) +. (h *. cval.(cs)))
  done;
  let cnz = Csc.nnz p.base.Mna.c_csc in
  let rhs_values = Array.make (max cnz 1) 0.0 in
  for k = 0 to cnz - 1 do
    rhs_values.(k) <- s *. cval.(k)
  done;
  if stamps.g = [||] && stamps.c = [||] then
    { nt; lhs_values; lhs_extra = Csc.no_entries; rhs_values;
      rhs_extra = Csc.no_entries }
  else begin
    let t = touch p stamps ~nt in
    for k = 0 to t.len - 1 do
      let sl = t.slot.(k) in
      if sl >= 0 then begin
        lhs_values.(sl) <-
          combine ~h ~has_g:t.has_g.(k) t.gx.(k) ~has_c:t.has_c.(k) t.cx.(k);
        if t.has_c.(k) && p.csrc.(sl) >= 0 then
          rhs_values.(p.csrc.(sl)) <- s *. t.cx.(k)
      end
    done;
    {
      nt;
      lhs_values;
      lhs_extra = entries p t ~nt ~h ~explicit:false;
      rhs_values;
      rhs_extra = entries p t ~nt ~h ~explicit:true;
    }
  end

let explicit_side p f =
  Csc.grow p.base.Mna.c_csc f.rhs_values ~n:f.nt f.rhs_extra

let assemble ?stamps p ~dt =
  let f = fill ?stamps p ~dt in
  (Csc.grow p.lhs f.lhs_values ~n:f.nt f.lhs_extra, explicit_side p f)

let companion ?stamps p ~dt =
  let f = fill ?stamps p ~dt in
  let sys = p.base in
  match
    match p.plan with
    | Some plan ->
        Numeric.Sparse.refactor plan f.lhs_values ~n:f.nt f.lhs_extra
    | None ->
        (* The precomputed G∪C ordering, whatever the timestep;
           appended unknowns are eliminated last. *)
        let added = f.nt - sys.Mna.size in
        Numeric.Sparse.try_factor
          ~symbolic:(Numeric.Sparse.Symbolic.extend sys.Mna.sym added)
          (Csc.grow p.lhs f.lhs_values ~n:f.nt f.lhs_extra)
  with
  | Error k -> Error k
  | Ok lu ->
      let b_prev = Array.make f.nt 0.0 and b_next = Array.make f.nt 0.0 in
      Ok
        { sys; size = f.nt; dt; lu; c_scaled = explicit_side p f; b_prev;
          b_next }

let factor cp = cp.lu

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
