module Csc = Numeric.Sparse.Csc
module Sparse = Numeric.Sparse
module Scratch = Numeric.Scratch

type stamp = { i : int; j : int; value : float }
type stamps = { added : int; g : stamp array; c : stamp array }

let no_stamps = { added = 0; g = [||]; c = [||] }

type chunk = {
  times : float array;
  states : float array array;
  final : float array;
}

let steps_counter = Obs.Counter.make "spice.steps"

(* The explicit side 2hC′ read in elimination order, for factors whose
   pivot rows are [p] and column order [q] (an appended unknown a,
   eliminated last, sits at step and position a). Step k's row p.(k)
   sums vals.(slot.(t)) times the state at position pos.(t), for t in
   ptr.(k) .. ptr.(k+1)-1, in ascending column order, as
   [Csc.mul_vec_into] sums a row; [vals] is the companion's. Source
   s adds to distinct row src_of.(s), eliminated at step
   src_step.(src_of.(s)). *)
type layout = {
  p : int array;
  q : int array;
  pinv : int array;  (* step of each row; a's is a *)
  qinv : int array;  (* position of each column; a's is a *)
  ptr : int array;  (* length steps + 2: the appended step has none *)
  slot : int array;
  pos : int array;
  src_step : int array;
  src_of : int array;
}

(* The layout of [m] (C, or a companion's explicit side) on [p] and
   [q]: its entries bucketed by the step of their row, in ascending
   column order within each. *)
let layout_of ~p ~q (m : Csc.t) (sys : Mna.t) =
  let n = Array.length p in
  let pinv = Array.make (n + 1) n and qinv = Array.make (n + 1) n in
  Array.iteri (fun k r -> pinv.(r) <- k) p;
  Array.iteri (fun k c -> qinv.(c) <- k) q;
  let nz = Csc.nnz m in
  let ptr = Array.make (n + 2) 0 in
  for s = 0 to nz - 1 do
    let k = pinv.(m.Csc.rowind.(s)) in
    ptr.(k + 1) <- ptr.(k + 1) + 1
  done;
  for k = 0 to n do
    ptr.(k + 1) <- ptr.(k + 1) + ptr.(k)
  done;
  let next = Array.sub ptr 0 (n + 1) in
  let slot = Array.make (max nz 1) 0 and pos = Array.make (max nz 1) 0 in
  for j = 0 to Csc.cols m - 1 do
    for s = m.Csc.colptr.(j) to m.Csc.colptr.(j + 1) - 1 do
      let k = pinv.(m.Csc.rowind.(s)) in
      slot.(next.(k)) <- s;
      pos.(next.(k)) <- qinv.(j);
      next.(k) <- next.(k) + 1
    done
  done;
  (* Distinct source rows, in order of first appearance. *)
  let sources = sys.Mna.sources in
  let rows = ref [] in
  let src_of =
    Array.map
      (fun { Mna.row; _ } ->
        match List.find_index (( = ) row) (List.rev !rows) with
        | Some d -> d
        | None ->
            rows := row :: !rows;
            List.length !rows - 1)
      sources
  in
  let src_step =
    Array.of_list (List.rev_map (fun row -> pinv.(row)) !rows)
  in
  { p; q; pinv; qinv; ptr; slot; pos; src_step; src_of }

(* Whether a factor of [n] unknowns has the permutations [lay] was
   derived on, grown by at most the one appended unknown. *)
let fits lay lu ~n =
  let p, q = Sparse.permutations lu in
  let base = Array.length lay.p in
  (n = base || n = base + 1)
  &&
  let same = ref true in
  for k = 0 to base - 1 do
    if p.(k) <> lay.p.(k) || q.(k) <> lay.q.(k) then same := false
  done;
  !same && (n = base || (p.(base) = base && q.(base) = base))

type pattern = {
  base : Mna.t;
  lhs : Csc.t;  (* the union pattern of G and C *)
  gsrc : int array;  (* per slot: its index in G's storage, or -1 *)
  csrc : int array;  (* likewise in C's *)
  plan : Sparse.plan option;
  layout : layout option;  (* C on the plan's permutations *)
}

let compile (sys : Mna.t) =
  let lhs, gsrc, csrc = Csc.union sys.Mna.g_csc sys.Mna.c_csc in
  { base = sys; lhs; gsrc; csrc; plan = None; layout = None }

(* G's plan reads the slots of G's pattern, which is the union's only
   when C adds no slot: the union holds G, so equal counts mean equal
   patterns. *)
let plannable p = Csc.nnz p.lhs = Csc.nnz p.base.Mna.g_csc

let with_plan p plan =
  if not (plannable p) then
    invalid_arg "Transient.with_plan: C adds slots to G";
  let pv, q = Sparse.plan_permutations plan in
  { p with
    plan = Some plan;
    layout = Some (layout_of ~p:pv ~q p.base.Mna.c_csc p.base) }

let system p = p.base

(* The entries a stamp set touches, in order of first touch: each
   position's slot in the pattern (or -1 outside it), its key
   col·size + row, and its G and C sums, each started from the base
   value when the pattern stores one and taking the stamps in stamping
   order. *)
type touched = {
  mutable len : int;
  mutable slot : int array;
  mutable key : int array;
  mutable gx : float array;
  mutable cx : float array;
  mutable has_g : bool array;
  mutable has_c : bool array;
}

(* Everything a companion and its steps write, kept per domain between
   companions: the filled values of both sides, the touched entries,
   the entries outside either pattern, the factor, and the loop's
   state, right-hand side, b(t) and probe values. *)
type buffers = {
  touched : touched;
  mutable lhs_values : float array;
  mutable rhs_values : float array;
  mutable order : int array;  (* outside entries, sorted *)
  mutable lcols : int array;
  mutable lrows : int array;
  mutable lvals : float array;
  mutable rcols : int array;
  mutable rrows : int array;
  mutable rvals : float array;
  mutable estep : int array;  (* the outside entries in step order *)
  mutable epos : int array;
  mutable evals : float array;
  factor : Sparse.buffer;
  mutable x : float array;
  mutable r : float array;
  mutable bp : float array;
  mutable bn : float array;
  mutable ppos : int array;
  mutable pvals : float array;
}

let buffers () =
  { touched =
      { len = 0; slot = [||]; key = [||]; gx = [||]; cx = [||]; has_g = [||];
        has_c = [||] };
    lhs_values = [||]; rhs_values = [||]; order = [||]; lcols = [||];
    lrows = [||]; lvals = [||]; rcols = [||]; rrows = [||]; rvals = [||];
    estep = [||]; epos = [||]; evals = [||]; factor = Sparse.buffer ();
    x = [||]; r = [||]; bp = [||]; bn = [||]; ppos = [||]; pvals = [||] }

let scratch = Scratch.make buffers

let touch p t (stamps : stamps) ~nt =
  let n = p.base.Mna.size in
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
  Array.iter (stamp t.cx t.has_c) stamps.c

(* A combined entry takes only the term of the operand that stores
   it. *)
let combine ~h ~has_g gx ~has_c cx =
  if has_g && has_c then gx +. (h *. cx) else if has_g then gx else h *. cx

(* The touched positions outside a pattern — outside G ∪ C for the
   iteration matrix, valued G′ + hC′; outside C for the explicit side,
   valued 2hC′ — sorted by key (few: an edited wire's appended
   unknowns), into the buffer's lhs or rhs entry arrays. *)
let entries b p ~nt ~h ~explicit =
  let t = b.touched in
  let outside k =
    if explicit then
      t.has_c.(k) && (t.slot.(k) < 0 || p.csrc.(t.slot.(k)) < 0)
    else t.slot.(k) < 0
  in
  b.order <- Scratch.ints b.order t.len;
  let ks = b.order and m = ref 0 in
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
  let m = !m in
  if m = 0 then Csc.no_entries
  else begin
    let cols, rows, vals =
      if explicit then begin
        b.rcols <- Scratch.ints b.rcols m;
        b.rrows <- Scratch.ints b.rrows m;
        b.rvals <- Scratch.floats b.rvals m;
        (b.rcols, b.rrows, b.rvals)
      end
      else begin
        b.lcols <- Scratch.ints b.lcols m;
        b.lrows <- Scratch.ints b.lrows m;
        b.lvals <- Scratch.floats b.lvals m;
        (b.lcols, b.lrows, b.lvals)
      end
    in
    for e = 0 to m - 1 do
      let k = ks.(e) in
      cols.(e) <- t.key.(k) / nt;
      rows.(e) <- t.key.(k) mod nt;
      vals.(e) <-
        (if explicit then 2.0 *. h *. t.cx.(k)
         else
           combine ~h ~has_g:t.has_g.(k) t.gx.(k) ~has_c:t.has_c.(k) t.cx.(k))
    done;
    { Csc.len = m; cols; rows; vals }
  end

(* One companion's values, into [b]: the iteration matrix G′ + hC′
   slot by slot of the pattern, the explicit side 2hC′ slot by slot of
   C, and the entries of either outside its pattern. Returns the grown
   size, those two entry sets, and whether a slot of the explicit side
   is an exact zero. *)
let fill b ?(stamps = no_stamps) p ~dt =
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
  b.lhs_values <- Scratch.floats b.lhs_values (max nz 1);
  let lhs_values = b.lhs_values in
  for k = 0 to nz - 1 do
    let gs = p.gsrc.(k) and cs = p.csrc.(k) in
    lhs_values.(k) <-
      (if gs < 0 then h *. cval.(cs)
       else if cs < 0 then gval.(gs)
       else gval.(gs) +. (h *. cval.(cs)))
  done;
  let cnz = Csc.nnz p.base.Mna.c_csc in
  b.rhs_values <- Scratch.floats b.rhs_values (max cnz 1);
  let rhs_values = b.rhs_values in
  for k = 0 to cnz - 1 do
    rhs_values.(k) <- s *. cval.(k)
  done;
  let lhs_extra, rhs_extra =
    if stamps.g = [||] && stamps.c = [||] then (Csc.no_entries, Csc.no_entries)
    else begin
      let t = b.touched in
      touch p t stamps ~nt;
      for k = 0 to t.len - 1 do
        let sl = t.slot.(k) in
        if sl >= 0 then begin
          lhs_values.(sl) <-
            combine ~h ~has_g:t.has_g.(k) t.gx.(k) ~has_c:t.has_c.(k) t.cx.(k);
          if t.has_c.(k) && p.csrc.(sl) >= 0 then
            rhs_values.(p.csrc.(sl)) <- s *. t.cx.(k)
        end
      done;
      ( entries b p ~nt ~h ~explicit:false,
        entries b p ~nt ~h ~explicit:true )
    end
  in
  let zero = ref false in
  for k = 0 to cnz - 1 do
    if rhs_values.(k) = 0.0 then zero := true
  done;
  (nt, lhs_extra, rhs_extra, !zero)

let assemble ?stamps p ~dt =
  (* Fresh buffers: [Csc.grow] may share the filled values. *)
  let b = buffers () in
  let nt, lhs_extra, rhs_extra, _ = fill b ?stamps p ~dt in
  ( Csc.grow p.lhs b.lhs_values ~n:nt lhs_extra,
    Csc.grow p.base.Mna.c_csc b.rhs_values ~n:nt rhs_extra )

type companion = {
  sys : Mna.t;
  size : int;
  dt : float;
  lu : Sparse.t;
  lay : layout;
  vals : float array;  (* what [lay.slot] indexes *)
  extra : int;  (* explicit-side entries outside [lay]: buf.estep ... *)
  buf : buffers;
}

(* The explicit side in elimination order. On the round's layout when
   the factor kept the plan's permutations, C's slots hold no exact
   zero (a grown matrix drops them) and every entry outside C lies in
   the appended row or column, and so sorts after each base row's own
   entries: those few then go, in order of their row's step and then
   column (a stable sort by step keeps the entries' column order), to
   [buf.estep]/[epos]/[evals]. Otherwise a layout of the
   grown explicit side on the factor's own permutations. *)
let explicit b p lu ~nt (e : Csc.entries) ~zero =
  let base = p.base.Mna.size in
  let appended t = e.Csc.rows.(t) >= base || e.Csc.cols.(t) >= base in
  let rec outside_ok t = t = e.Csc.len || (appended t && outside_ok (t + 1)) in
  match p.layout with
  | Some lay when (not zero) && outside_ok 0 && fits lay lu ~n:nt ->
      let m = e.Csc.len in
      b.estep <- Scratch.ints b.estep m;
      b.epos <- Scratch.ints b.epos m;
      b.evals <- Scratch.floats b.evals m;
      let o = ref 0 in
      for t = 0 to m - 1 do
        let v = e.Csc.vals.(t) in
        if v <> 0.0 then begin
          let k = lay.pinv.(e.Csc.rows.(t)) in
          let s = ref !o in
          while !s > 0 && b.estep.(!s - 1) > k do
            b.estep.(!s) <- b.estep.(!s - 1);
            b.epos.(!s) <- b.epos.(!s - 1);
            b.evals.(!s) <- b.evals.(!s - 1);
            decr s
          done;
          b.estep.(!s) <- k;
          b.epos.(!s) <- lay.qinv.(e.Csc.cols.(t));
          b.evals.(!s) <- v;
          incr o
        end
      done;
      (lay, b.rhs_values, !o)
  | _ ->
      let c = Csc.grow p.base.Mna.c_csc b.rhs_values ~n:nt e in
      let pv, q = Sparse.permutations lu in
      (layout_of ~p:pv ~q c p.base, c.Csc.values, 0)

let with_companion ?stamps p ~dt f =
  Scratch.use scratch (fun b ->
      let nt, lhs_extra, rhs_extra, zero = fill b ?stamps p ~dt in
      let sys = p.base in
      match
        match p.plan with
        | Some plan ->
            Sparse.refactor ~into:b.factor plan b.lhs_values ~n:nt lhs_extra
        | None ->
            (* The precomputed G∪C ordering, whatever the timestep;
               appended unknowns are eliminated last. *)
            let added = nt - sys.Mna.size in
            Sparse.try_factor
              ~symbolic:(Sparse.Symbolic.extend sys.Mna.sym added)
              (Csc.grow p.lhs b.lhs_values ~n:nt lhs_extra)
      with
      | Error k -> Error k
      | Ok lu ->
          let lay, vals, extra = explicit b p lu ~nt rhs_extra ~zero in
          Ok (f { sys; size = nt; dt; lu; lay; vals; extra; buf = b }))

let factor cp = cp.lu

(* b(t) at the distinct source rows: each row from 0.0, its sources
   added in array order, as [Mna.rhs_into] sums them. *)
let sources_at (sys : Mna.t) lay bv t =
  Array.fill bv 0 (Array.length lay.src_step) 0.0;
  let sources = sys.Mna.sources in
  for s = 0 to Array.length sources - 1 do
    let { Mna.sign; wave; _ } = sources.(s) in
    let d = lay.src_of.(s) in
    bv.(d) <- bv.(d) +. (sign *. Circuit.Waveform.value wave t)
  done

let loop cp ~x0 ~t0 ~steps ~probes ~on_step =
  if steps <= 0 then invalid_arg "Transient.loop: steps must be positive";
  let n = cp.size and dt = cp.dt in
  if Array.length x0 <> n then invalid_arg "Transient.loop: state size mismatch";
  let b = cp.buf and lay = cp.lay and lu = cp.lu in
  let _, q = Sparse.permutations lu in
  let np = Array.length probes in
  b.ppos <- Scratch.ints b.ppos np;
  b.pvals <- Scratch.exact_floats b.pvals np;
  let ppos = b.ppos and pvals = b.pvals in
  for i = 0 to np - 1 do
    let u = probes.(i) in
    if u < 0 || u >= n then invalid_arg "Transient.loop: probe out of range";
    ppos.(i) <- lay.qinv.(u)
  done;
  (* The state in the factor's column order, the right-hand side in its
     row order: the solve needs neither permutation. The two trade
     places every step, the solve overwriting the right-hand side with
     the new state. *)
  b.x <- Scratch.floats b.x n;
  b.r <- Scratch.floats b.r n;
  let x = ref b.x and r = ref b.r in
  for k = 0 to n - 1 do
    !x.(k) <- x0.(q.(k))
  done;
  let ns = Array.length lay.src_step in
  b.bp <- Scratch.floats b.bp ns;
  b.bn <- Scratch.floats b.bn ns;
  let bp = ref b.bp and bn = ref b.bn in
  sources_at cp.sys lay !bp t0;
  let ptr = lay.ptr and slot = lay.slot and pos = lay.pos in
  let src_step = lay.src_step and vals = cp.vals in
  let extra = cp.extra and estep = b.estep and epos = b.epos in
  let evals = b.evals in
  let taken = ref 0 and stop = ref false in
  while (not !stop) && !taken < steps do
    let s = !taken in
    let t' = t0 +. (float_of_int (s + 1) *. dt) in
    let bn' = !bn and bp' = !bp in
    sources_at cp.sys lay bn' t';
    let xv = !x and rv = !r in
    (* 2hC′·x, each row's terms summed from 0.0 in ascending column
       order; the entries outside the layout come last in theirs.
       Unchecked accesses: the layout's positions and slots index the
       state and the values it was built with. *)
    let e = ref 0 in
    for k = 0 to n - 1 do
      let acc = ref 0.0 in
      for t = Array.unsafe_get ptr k to Array.unsafe_get ptr (k + 1) - 1 do
        acc :=
          !acc
          +. Array.unsafe_get vals (Array.unsafe_get slot t)
             *. Array.unsafe_get xv (Array.unsafe_get pos t)
      done;
      while !e < extra && estep.(!e) = k do
        acc := !acc +. (evals.(!e) *. xv.(epos.(!e)));
        incr e
      done;
      Array.unsafe_set rv k !acc
    done;
    (* b(t) + b(t′) on the source rows; every other row's is 0.0 + 0.0,
       which leaves the product's sum (never -0.0) as it is. *)
    for d = 0 to ns - 1 do
      let k = src_step.(d) in
      rv.(k) <- rv.(k) +. bp'.(d) +. bn'.(d)
    done;
    Sparse.solve_ordered lu rv;
    (* The solve gave x' + x. *)
    for k = 0 to n - 1 do
      Array.unsafe_set rv k (Array.unsafe_get rv k -. Array.unsafe_get xv k)
    done;
    x := rv;
    r := xv;
    bp := bn';
    bn := bp';
    for i = 0 to np - 1 do
      pvals.(i) <- rv.(ppos.(i))
    done;
    taken := s + 1;
    stop := on_step t' pvals
  done;
  Obs.Counter.add steps_counter !taken;
  let final = Array.make n 0.0 in
  for k = 0 to n - 1 do
    final.(q.(k)) <- !x.(k)
  done;
  (final, !taken)

let run cp ~x0 ~t0 ~steps ~probes =
  (* A non-positive [steps] gets empty arrays here; [loop] rejects it. *)
  let recorded = max steps 0 in
  let times = Array.make recorded 0.0 in
  let states = Array.map (fun _ -> Array.make recorded 0.0) probes in
  let s = ref 0 in
  let final, _ =
    loop cp ~x0 ~t0 ~steps ~probes ~on_step:(fun t v ->
        times.(!s) <- t;
        Array.iteri (fun p x -> states.(p).(!s) <- x) v;
        incr s;
        false)
  in
  { times; states; final }
