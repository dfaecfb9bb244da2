(* Sparse CSC matrices, reverse Cuthill–McKee ordering, and a
   left-looking (Gilbert–Peierls) LU with threshold partial pivoting.
   Stdlib-only by design: the MNA systems here are near-tree, so a
   simple ordering plus a depth-first-search reach per column already
   brings factor and solve work down to O(nnz). *)

let factorizations = Obs.Counter.make "sparse.factorizations"
let singular_factorizations = Obs.Counter.make "sparse.singular"

(* Input nonzeros handed to the sparse factoriser, summed across
   factorisations — together with [sparse.factorizations] this gives
   the mean system sparsity the run actually saw. *)
let nnz_counter = Obs.Counter.make "sparse.nnz"

(* nnz(L+U)/nnz(A) per factorisation. Near-tree MNA systems should sit
   in the low buckets; mass in the tail means the ordering is failing
   to contain fill. *)
let fill_hist =
  Obs.Histogram.make "sparse.fill_ratio"
    ~buckets:[| 1.0; 1.5; 2.0; 3.0; 5.0; 10.0; 25.0 |]

(* The same floors as the dense reference kernel (test/lu.ml). The two
   verdicts still differ on borderline matrices, because whether a
   pivot clears 1e-13 depends on the pivot order; this kernel's verdict
   is final. *)
let pivot_floor = 1e-300
let relative_pivot_threshold = 1e-13

(* Threshold partial pivoting: prefer the diagonal of the ordered
   column whenever it is within this factor of the column's largest
   candidate. Diagonally dominant MNA stamps almost always keep their
   diagonal, which preserves the ordering's fill prediction. *)
let pivot_tolerance = 0.1

module Triplets = struct
  type t = {
    mutable len : int;
    mutable ri : int array;
    mutable ci : int array;
    mutable vs : float array;
  }

  let create ?(capacity = 16) () =
    let capacity = max capacity 1 in
    {
      len = 0;
      ri = Array.make capacity 0;
      ci = Array.make capacity 0;
      vs = Array.make capacity 0.0;
    }

  let length t = t.len

  let grow t =
    let cap = Array.length t.ri in
    let cap' = (2 * cap) + 1 in
    let ri = Array.make cap' 0 and ci = Array.make cap' 0 in
    let vs = Array.make cap' 0.0 in
    Array.blit t.ri 0 ri 0 t.len;
    Array.blit t.ci 0 ci 0 t.len;
    Array.blit t.vs 0 vs 0 t.len;
    t.ri <- ri;
    t.ci <- ci;
    t.vs <- vs

  let add t i j v =
    if i < 0 || j < 0 then invalid_arg "Sparse.Triplets.add: negative index";
    if t.len = Array.length t.ri then grow t;
    t.ri.(t.len) <- i;
    t.ci.(t.len) <- j;
    t.vs.(t.len) <- v;
    t.len <- t.len + 1

  let iter t f =
    for k = 0 to t.len - 1 do
      f t.ri.(k) t.ci.(k) t.vs.(k)
    done
end

module Csc = struct
  type entries = {
    len : int;
    cols : int array;
    rows : int array;
    vals : float array;
  }

  let no_entries : entries = { len = 0; cols = [||]; rows = [||]; vals = [||] }

  type t = {
    rows : int;
    cols : int;
    colptr : int array;  (* length cols+1 *)
    rowind : int array;  (* length nnz, sorted & unique per column *)
    values : float array;  (* length nnz *)
  }

  let rows (t : t) = t.rows
  let cols (t : t) = t.cols
  let nnz (t : t) = t.colptr.(t.cols)

  let of_triplets ~n (t : Triplets.t) =
    if n < 0 then invalid_arg "Sparse.Csc.of_triplets: negative size";
    let len = t.Triplets.len in
    let ri = t.Triplets.ri and ci = t.Triplets.ci and vs = t.Triplets.vs in
    for k = 0 to len - 1 do
      if ri.(k) >= n || ci.(k) >= n then
        invalid_arg "Sparse.Csc.of_triplets: index out of bounds"
    done;
    (* Bucket by column, keeping insertion order within each column so
       duplicate stamps sum in the order they were stamped. *)
    let cnt = Array.make (n + 1) 0 in
    for k = 0 to len - 1 do
      cnt.(ci.(k)) <- cnt.(ci.(k)) + 1
    done;
    let start = Array.make (n + 1) 0 in
    for j = 0 to n - 1 do
      start.(j + 1) <- start.(j) + cnt.(j)
    done;
    let next = Array.copy start in
    let bri = Array.make (max len 1) 0 in
    let bvs = Array.make (max len 1) 0.0 in
    for k = 0 to len - 1 do
      let j = ci.(k) in
      bri.(next.(j)) <- ri.(k);
      bvs.(next.(j)) <- vs.(k);
      next.(j) <- next.(j) + 1
    done;
    (* Per column: stable insertion sort by row (column counts in MNA
       stamps are tiny), then sum runs of equal rows in order. *)
    let colptr = Array.make (n + 1) 0 in
    let rowind = Array.make (max len 1) 0 in
    let values = Array.make (max len 1) 0.0 in
    let out = ref 0 in
    for j = 0 to n - 1 do
      colptr.(j) <- !out;
      let lo = start.(j) and hi = start.(j + 1) in
      for k = lo + 1 to hi - 1 do
        let r = bri.(k) and v = bvs.(k) in
        let p = ref k in
        while !p > lo && bri.(!p - 1) > r do
          bri.(!p) <- bri.(!p - 1);
          bvs.(!p) <- bvs.(!p - 1);
          decr p
        done;
        bri.(!p) <- r;
        bvs.(!p) <- v
      done;
      let k = ref lo in
      while !k < hi do
        let r = bri.(!k) in
        let acc = ref bvs.(!k) in
        incr k;
        while !k < hi && bri.(!k) = r do
          acc := !acc +. bvs.(!k);
          incr k
        done;
        rowind.(!out) <- r;
        values.(!out) <- !acc;
        incr out
      done
    done;
    colptr.(n) <- !out;
    {
      rows = n;
      cols = n;
      rowind = Array.sub rowind 0 (max !out 1);
      values = Array.sub values 0 (max !out 1);
      colptr;
    }

  (* One merge of two sorted columns per column: each union slot's
     index in [a]'s and [b]'s storage, or -1. *)
  let union (a : t) (b : t) =
    let n = a.cols in
    if a.rows <> n || b.rows <> n || b.cols <> n then
      invalid_arg "Sparse.Csc.union: size mismatch";
    let cap = max 1 (nnz a + nnz b) in
    let colptr = Array.make (n + 1) 0 in
    let rowind = Array.make cap 0 in
    let asrc = Array.make cap (-1) and bsrc = Array.make cap (-1) in
    let out = ref 0 in
    for j = 0 to n - 1 do
      colptr.(j) <- !out;
      let p = ref a.colptr.(j) and pe = a.colptr.(j + 1) in
      let q = ref b.colptr.(j) and qe = b.colptr.(j + 1) in
      while !p < pe || !q < qe do
        let ra = if !p < pe then a.rowind.(!p) else max_int in
        let rb = if !q < qe then b.rowind.(!q) else max_int in
        let r = min ra rb in
        rowind.(!out) <- r;
        if ra = r then begin
          asrc.(!out) <- !p;
          incr p
        end;
        if rb = r then begin
          bsrc.(!out) <- !q;
          incr q
        end;
        incr out
      done
    done;
    colptr.(n) <- !out;
    let len = max !out 1 in
    ( { rows = n; cols = n; colptr; rowind = Array.sub rowind 0 len;
        values = Array.make len 0.0 },
      Array.sub asrc 0 len,
      Array.sub bsrc 0 len )

  let check_entries ~fn (e : entries) =
    let m = e.len in
    if
      m < 0 || Array.length e.cols < m || Array.length e.rows < m
      || Array.length e.vals < m
    then invalid_arg (fn ^ ": entries shorter than their length")

  let grow (p : t) values ~n (e : entries) =
    let m = e.len in
    let pn = p.cols and pnz = nnz p in
    if n < pn || Array.length values < pnz then
      invalid_arg "Sparse.Csc.grow: size mismatch";
    check_entries ~fn:"Sparse.Csc.grow" e;
    let rec no_zero k = k = pnz || (values.(k) <> 0.0 && no_zero (k + 1)) in
    if m = 0 && n = pn && no_zero 0 then { p with values }
    else begin
      let bad () = invalid_arg "Sparse.Csc.grow: malformed entries" in
      let cap = max 1 (pnz + m) in
      let colptr = Array.make (n + 1) 0 in
      let rowind = Array.make cap 0 and vals = Array.make cap 0.0 in
      let out = ref 0 and k = ref 0 in
      for j = 0 to n - 1 do
        colptr.(j) <- !out;
        let s = ref (if j < pn then p.colptr.(j) else 0) in
        let se = if j < pn then p.colptr.(j + 1) else 0 in
        let prev = ref (-1) in
        while !s < se || (!k < m && e.cols.(!k) = j) do
          if
            !s < se
            && not (!k < m && e.cols.(!k) = j && e.rows.(!k) <= p.rowind.(!s))
          then begin
            let v = values.(!s) in
            if v <> 0.0 then begin
              rowind.(!out) <- p.rowind.(!s);
              vals.(!out) <- v;
              incr out
            end;
            incr s
          end
          else begin
            let r = e.rows.(!k) in
            if r <= !prev || r >= n || (!s < se && p.rowind.(!s) = r) then
              bad ();
            let v = e.vals.(!k) in
            if v <> 0.0 then begin
              rowind.(!out) <- r;
              vals.(!out) <- v;
              incr out
            end;
            prev := r;
            incr k
          end
        done;
        if !k < m && e.cols.(!k) < j then bad ()
      done;
      if !k < m then bad ();
      colptr.(n) <- !out;
      let fit a = if !out >= cap then a else Array.sub a 0 (max !out 1) in
      { rows = n; cols = n; colptr; rowind = fit rowind; values = fit vals }
    end

  (* Column-oriented, so each out.(i) accumulates its row's products in
     ascending column order starting from 0.0. Unchecked accesses: the
     lengths are checked above and a CSC's row indices are < rows by
     construction. *)
  let mul_vec_into t x out =
    if Array.length x <> t.cols || Array.length out <> t.rows then
      invalid_arg "Sparse.Csc.mul_vec_into: length mismatch";
    Array.fill out 0 t.rows 0.0;
    let colptr = t.colptr in
    for j = 0 to t.cols - 1 do
      let xj = Array.unsafe_get x j in
      for p = Array.unsafe_get colptr j to Array.unsafe_get colptr (j + 1) - 1 do
        let i = Array.unsafe_get t.rowind p in
        Array.unsafe_set out i
          (Array.unsafe_get out i +. (Array.unsafe_get t.values p *. xj))
      done
    done
end

module Symbolic = struct
  type t = { n : int; q : int array }

  let order t = Array.copy t.q
  let size t = t.n

  let extend t k =
    if k < 0 then invalid_arg "Sparse.Symbolic.extend: negative count";
    if k = 0 then t
    else
      let n = t.n + k in
      { n; q = Array.init n (fun i -> if i < t.n then t.q.(i) else i) }
end

(* Reverse Cuthill–McKee on pattern(A + Aᵀ): BFS from a
   pseudo-peripheral vertex of each component, neighbours visited in
   increasing-degree order, whole order reversed. For the near-tree
   matrices here this keeps the profile — and hence LU fill — narrow;
   it is also deterministic, which the byte-identical-output contract
   relies on. *)
let analyze (a : Csc.t) =
  let n = Csc.cols a in
  if Csc.rows a <> n then invalid_arg "Sparse.analyze: matrix not square";
  (* Symmetrised adjacency, self-loops dropped. *)
  let deg = Array.make (max n 1) 0 in
  let count i j =
    if i <> j then begin
      deg.(i) <- deg.(i) + 1;
      deg.(j) <- deg.(j) + 1
    end
  in
  for j = 0 to n - 1 do
    for p = a.Csc.colptr.(j) to a.Csc.colptr.(j + 1) - 1 do
      count a.Csc.rowind.(p) j
    done
  done;
  let adjptr = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    adjptr.(i + 1) <- adjptr.(i) + deg.(i)
  done;
  let adj = Array.make (max adjptr.(n) 1) 0 in
  let next = Array.copy adjptr in
  let push i j =
    if i <> j then begin
      adj.(next.(i)) <- j;
      next.(i) <- next.(i) + 1;
      adj.(next.(j)) <- i;
      next.(j) <- next.(j) + 1
    end
  in
  for j = 0 to n - 1 do
    for p = a.Csc.colptr.(j) to a.Csc.colptr.(j + 1) - 1 do
      push a.Csc.rowind.(p) j
    done
  done;
  (* Sort each adjacency list in place by [before] — insertion sort:
     MNA rows have few neighbours. *)
  let sort_segment lo hi before =
    for k = lo + 1 to hi - 1 do
      let v = adj.(k) in
      let p = ref k in
      while !p > lo && before v adj.(!p - 1) do
        adj.(!p) <- adj.(!p - 1);
        decr p
      done;
      adj.(!p) <- v
    done
  in
  (* Dedup each adjacency list (A and Aᵀ overlap on symmetric
     patterns) and recompute degrees. *)
  let udeg = Array.make (max n 1) 0 in
  for i = 0 to n - 1 do
    let lo = adjptr.(i) and hi = next.(i) in
    sort_segment lo hi (fun u v -> u < v);
    let out = ref lo in
    for k = lo to hi - 1 do
      let v = adj.(k) in
      if !out = lo || adj.(!out - 1) <> v then begin
        adj.(!out) <- v;
        incr out
      end
    done;
    udeg.(i) <- !out - lo
  done;
  (* Neighbour order: ascending (degree, index) — the classic CM
     tie-break, and a total order so the result is deterministic. *)
  let by_deg u v = if udeg.(u) = udeg.(v) then compare u v else compare udeg.(u) (udeg.(v)) in
  for i = 0 to n - 1 do
    sort_segment adjptr.(i) (adjptr.(i) + udeg.(i)) (fun u v -> by_deg u v < 0)
  done;
  let visited = Array.make (max n 1) false in
  let order = Array.make (max n 1) 0 in
  let pos = ref 0 in
  let queue = Array.make (max n 1) 0 in
  (* BFS from [root] appending to [order]; returns a vertex in the last
     level (a pseudo-peripheral candidate). [commit] keeps the visit
     marks; otherwise they are rolled back. *)
  let bfs ~commit root =
    let head = ref 0 and tail = ref 0 in
    let base = !pos in
    queue.(!tail) <- root;
    incr tail;
    visited.(root) <- true;
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      order.(!pos) <- u;
      incr pos;
      for p = adjptr.(u) to adjptr.(u) + udeg.(u) - 1 do
        let v = adj.(p) in
        if not visited.(v) then begin
          visited.(v) <- true;
          queue.(!tail) <- v;
          incr tail
        end
      done
    done;
    let last = order.(!pos - 1) in
    if not commit then begin
      for k = base to !pos - 1 do
        visited.(order.(k)) <- false
      done;
      pos := base
    end;
    last
  in
  (* Vertices by ascending (degree, index): component starts. *)
  let starts = Array.init n Fun.id in
  Array.sort by_deg starts;
  Array.iter
    (fun s ->
      if not visited.(s) then begin
        (* Two probe sweeps toward a pseudo-peripheral start. *)
        let e1 = bfs ~commit:false s in
        let e2 = bfs ~commit:false e1 in
        bfs ~commit:true e2 |> ignore
      end)
    starts;
  (* Reverse: Cuthill–McKee → RCM. *)
  let q = Array.make (max n 1) 0 in
  for k = 0 to n - 1 do
    q.(k) <- order.(n - 1 - k)
  done;
  { Symbolic.n; q = (if n = 0 then [||] else q) }

type t = {
  n : int;
  (* L strictly lower (unit diagonal implicit), one column per pivot
     step, row indices in pivot positions; U strictly upper with the
     diagonal split out. Both in elimination order. *)
  lp : int array;
  li : int array;
  lx : float array;
  up : int array;
  ui : int array;
  ux : float array;
  udiag : float array;
  p : int array;  (* p.(k) = original row pivotal at step k *)
  q : int array;  (* q.(k) = original column eliminated at step k *)
  scratch : float array;
}

let size t = t.n
let factor_nnz t = t.lp.(t.n) + t.up.(t.n) + t.n

type parts = {
  p : int array;
  q : int array;
  udiag : float array;
  l : (int * float) array array;
  u : (int * float) array array;
}

let parts (t : t) =
  let column ptr rows vals k =
    Array.init (ptr.(k + 1) - ptr.(k)) (fun m ->
        (rows.(ptr.(k) + m), vals.(ptr.(k) + m)))
  in
  {
    p = Array.sub t.p 0 t.n;
    q = Array.sub t.q 0 t.n;
    udiag = Array.sub t.udiag 0 t.n;
    l = Array.init t.n (column t.lp t.li t.lx);
    u = Array.init t.n (column t.up t.ui t.ux);
  }

(* Growable int/float parallel array for the factor columns. *)
type buf = { mutable bi : int array; mutable bx : float array; mutable blen : int }

let buf_create cap = { bi = Array.make (max cap 4) 0; bx = Array.make (max cap 4) 0.0; blen = 0 }

let buf_push b i x =
  let cap = Array.length b.bi in
  if b.blen = cap then begin
    let bi = Array.make (2 * cap) 0 and bx = Array.make (2 * cap) 0.0 in
    Array.blit b.bi 0 bi 0 b.blen;
    Array.blit b.bx 0 bx 0 b.blen;
    b.bi <- bi;
    b.bx <- bx
  end;
  b.bi.(b.blen) <- i;
  b.bx.(b.blen) <- x;
  b.blen <- b.blen + 1

(* Each domain factors in its own workspace, kept between calls, so a
   factorisation allocates only the factor it returns: the dense
   scatter vector [x] (all zero between steps), the depth-first
   search's marks and stacks, the row-to-step map [pinv], and growable
   buffers for L and U. A mark equal to [gen] means "visited at the
   current step"; [gen] only grows, so marks never need clearing. *)
type work = {
  mutable cap : int;
  mutable x : float array;
  mutable mark : int array;
  mutable gen : int;
  mutable stack : int array;
  mutable pstack : int array;
  mutable topo : int array;
  mutable pinv : int array;
  l : buf;
  u : buf;
}

let work_key =
  Domain.DLS.new_key (fun () ->
      { cap = 0; x = [||]; mark = [||]; gen = 0; stack = [||]; pstack = [||];
        topo = [||]; pinv = [||]; l = buf_create 64; u = buf_create 64 })

(* The calling domain's workspace for an n×n factorisation: x zero, no
   row pivotal yet, buffers empty. *)
let workspace n =
  let w = Domain.DLS.get work_key in
  if w.cap < n then begin
    let cap = max n (2 * w.cap) in
    w.cap <- cap;
    w.x <- Array.make cap 0.0;
    w.mark <- Array.make cap (-1);
    w.stack <- Array.make cap 0;
    w.pstack <- Array.make cap 0;
    w.topo <- Array.make cap 0;
    w.pinv <- Array.make cap (-1)
  end;
  Array.fill w.x 0 n 0.0;
  Array.fill w.pinv 0 n (-1);
  w.l.blen <- 0;
  w.u.blen <- 0;
  w

(* Reach of the rows roots.(lo .. hi-1) through the L columns [lp]/[li]
   (original row indices) of the rows pivotal so far, row i's at step
   pinv.(i) (-1 for one not yet pivotal): iterative DFS with per-node
   resume positions, emitting a topological order into topo.(top..n-1),
   the reverse of the order it finishes rows in. Returns top. *)
let dfs_reach w ~li ~lp ~pinv ~roots ~lo ~hi ~n =
  w.gen <- w.gen + 1;
  let gen = w.gen in
  let mark = w.mark in
  let stack = w.stack and pstack = w.pstack and topo = w.topo in
  let top = ref n in
  for pa = lo to hi - 1 do
    let root = roots.(pa) in
    if mark.(root) <> gen then begin
      let head = ref 0 in
      stack.(0) <- root;
      while !head >= 0 do
        let i = stack.(!head) in
        if mark.(i) <> gen then begin
          mark.(i) <- gen;
          pstack.(!head) <- (if pinv.(i) >= 0 then lp.(pinv.(i)) else 0)
        end;
        let advanced = ref false in
        if pinv.(i) >= 0 then begin
          let stop = lp.(pinv.(i) + 1) in
          let pp = ref pstack.(!head) in
          while (not !advanced) && !pp < stop do
            let r = li.(!pp) in
            incr pp;
            if mark.(r) <> gen then begin
              pstack.(!head) <- !pp;
              incr head;
              stack.(!head) <- r;
              advanced := true
            end
          done
        end;
        if not !advanced then begin
          decr head;
          decr top;
          topo.(!top) <- i
        end
      done
    end
  done;
  !top

type step = Pivoted | No_pivot

(* One elimination step: scatter A(:,col) into x, solve
   x = L⁻¹A(:,col) through the L columns of the pivotal rows in
   reach.(lo..hi-1), a topological order; choose the pivot by threshold
   partial pivoting (the diagonal when within [pivot_tolerance] of the
   column maximum); then emit U (pivotal rows, in elimination
   positions) and L (non-pivotal rows, original indices for now, scaled
   by the pivot), clearing x as it goes. Exact zeros are not stored. A
   pivot below the floor is [No_pivot]. *)
let eliminate w (a : Csc.t) ~lp ~up ~p ~udiag ~floor ~k ~col ~reach ~lo ~hi =
  let x = w.x and pinv = w.pinv in
  for pa = a.Csc.colptr.(col) to a.Csc.colptr.(col + 1) - 1 do
    x.(a.Csc.rowind.(pa)) <- a.Csc.values.(pa)
  done;
  let li = w.l.bi and lx = w.l.bx in
  let diagonal = ref false in
  for t = lo to hi - 1 do
    let i = reach.(t) in
    if i = col then diagonal := true;
    let ti = pinv.(i) in
    if ti >= 0 then begin
      let xi = x.(i) in
      if xi <> 0.0 then
        for pp = lp.(ti) to lp.(ti + 1) - 1 do
          let r = li.(pp) in
          x.(r) <- x.(r) -. (lx.(pp) *. xi)
        done
    end
  done;
  let piv = ref (-1) and pmax = ref 0.0 in
  for t = lo to hi - 1 do
    let i = reach.(t) in
    if pinv.(i) < 0 then begin
      let av = abs_float x.(i) in
      if av > !pmax then begin
        pmax := av;
        piv := i
      end
    end
  done;
  if !piv >= 0 && !diagonal && pinv.(col) < 0 then begin
    let ad = abs_float x.(col) in
    if ad >= pivot_tolerance *. !pmax then piv := col
  end;
  let piv = !piv in
  let pivot = if piv >= 0 then x.(piv) else 0.0 in
  if piv < 0 || abs_float pivot < floor || not (Float.is_finite pivot) then
    No_pivot
  else begin
    p.(k) <- piv;
    pinv.(piv) <- k;
    udiag.(k) <- pivot;
    for t = lo to hi - 1 do
      let i = reach.(t) in
      let xi = x.(i) in
      if i <> piv && xi <> 0.0 then begin
        let ti = pinv.(i) in
        if ti >= 0 then buf_push w.u ti xi else buf_push w.l i (xi /. pivot)
      end;
      x.(i) <- 0.0
    done;
    lp.(k + 1) <- w.l.blen;
    up.(k + 1) <- w.u.blen;
    Pivoted
  end

type outcome = Factored | Singular_at of int

(* Every step's reach by depth-first search. *)
let factor_full w a ~q ~n ~floor ~lp ~up ~p ~udiag =
  let rec go k =
    if k = n then Factored
    else
      let col = q.(k) in
      let top =
        dfs_reach w ~li:w.l.bi ~lp ~pinv:w.pinv ~roots:a.Csc.rowind
          ~lo:a.Csc.colptr.(col) ~hi:a.Csc.colptr.(col + 1) ~n
      in
      match
        eliminate w a ~lp ~up ~p ~udiag ~floor ~k ~col ~reach:w.topo ~lo:top
          ~hi:n
      with
      | Pivoted -> go (k + 1)
      | No_pivot -> Singular_at col
  in
  go 0

let refactors = Obs.Counter.make "sparse.refactors"
let refactor_fallbacks = Obs.Counter.make "sparse.refactor_fallbacks"

(* The largest absolute value among [values.(0 .. len-1)], folded into
   [amax.(0)] (a float cell, so the fold allocates nothing), and the
   exact zeros among them, counted in [zeros]; false when one is not
   finite. *)
let scan_values values len ~amax ~zeros =
  let finite = ref true and m = ref amax.(0) in
  for k = 0 to len - 1 do
    let v = values.(k) in
    if not (Float.is_finite v) then finite := false;
    if v = 0.0 then incr zeros;
    let av = abs_float v in
    if av > !m then m := av
  done;
  amax.(0) <- !m;
  !finite

let pivot_floor_of amax =
  Float.max pivot_floor (relative_pivot_threshold *. amax)

(* The full kernel on [a] in [sym]'s order, its factor packaged and its
   verdict counted. *)
let factor_ordered (sym : Symbolic.t) (a : Csc.t) ~floor =
  let n = Csc.rows a in
  let q = sym.Symbolic.q in
  let p = Array.make (max n 1) 0 in
  let udiag = Array.make (max n 1) 0.0 in
  let lp = Array.make (n + 1) 0 and up = Array.make (n + 1) 0 in
  let w = workspace n in
  match factor_full w a ~q ~n ~floor ~lp ~up ~p ~udiag with
  | Singular_at col ->
      Obs.Counter.incr singular_factorizations;
      Error col
  | Factored ->
      let l = w.l and u = w.u in
      (* Remap L's row indices to pivot positions: every row is pivotal
         by now. *)
      let li = Array.sub l.bi 0 (max l.blen 1) in
      for pp = 0 to l.blen - 1 do
        li.(pp) <- w.pinv.(li.(pp))
      done;
      let f =
        {
          n;
          lp;
          li;
          lx = Array.sub l.bx 0 (max l.blen 1);
          up;
          ui = Array.sub u.bi 0 (max u.blen 1);
          ux = Array.sub u.bx 0 (max u.blen 1);
          udiag;
          p;
          q;
          scratch = Array.make (max n 1) 0.0;
        }
      in
      let anz = Csc.nnz a in
      if Obs.enabled () && anz > 0 then
        Obs.Histogram.observe fill_hist
          (float_of_int (factor_nnz f) /. float_of_int anz);
      Ok f

let try_factor ?symbolic (a : Csc.t) =
  let n = Csc.rows a in
  if Csc.cols a <> n then invalid_arg "Sparse.try_factor: matrix not square";
  Obs.Counter.incr factorizations;
  let anz = Csc.nnz a in
  Obs.Counter.add nnz_counter anz;
  let amax = [| 0.0 |] in
  if not (scan_values a.Csc.values anz ~amax ~zeros:(ref 0)) then begin
    Obs.Counter.incr singular_factorizations;
    Error (-1)
  end
  else
    let sym =
      match symbolic with
      | Some s ->
          if s.Symbolic.n <> n then
            invalid_arg "Sparse.try_factor: symbolic size mismatch";
          s
      | None -> analyze a
    in
    factor_ordered sym a ~floor:(pivot_floor_of amax.(0))

(* A factorisation compiled into flat arrays of positions. Step k
   scatters column q.(k) of [pattern]; updates through the L columns
   ucol.(t) of the rows urow.(t) already pivotal, for t in
   uptr.(k) .. uptr.(k+1)-1, in the reach's topological order; picks
   its pivot among the other rows of its reach, cand.(cptr.(k) ..
   cptr.(k+1)-1) in the same order (its own row among them when
   [diag.(k)]); and emits U at the update rows' steps and L for every
   candidate but the pivot: L column k's base rows are
   lrow.(blp.(k) .. blp.(k+1)-1), original indices, whose steps are
   lstep. An appended unknown's entry in an L column follows its base
   rows. Base row i's reach through L, as a depth-first search from it
   alone finishes its rows, is rreach.(rptr.(i) .. rptr.(i+1)-1) in
   [reaches] = Some (rptr, rreach): only an appended column reads them,
   so the first plan run that has one records them (sum of the reach
   sizes, up to n·depth of the elimination tree), and plain or resized
   companions never pay for them. Any domain may record them; every
   recording is the same. *)
type plan = {
  sym : Symbolic.t;
  pattern : Csc.t;
  steps : int;
  qinv : int array;
  pivots : int array;
  pinv : int array;
  uptr : int array;
  urow : int array;
  ucol : int array;
  cptr : int array;
  cand : int array;
  diag : bool array;
  blp : int array;
  lrow : int array;
  lstep : int array;
  reaches : (int array * int array) option Atomic.t;
  p_grown : int array;
  q_grown : int array;
}

(* Each base row's reach through the structural L [blp]/[lrow] (row i
   pivotal at step pinv.(i)), in the order the depth-first search from
   that row alone finishes its rows: what a later column's reach is
   merged from (Gilbert & Peierls 1988). *)
let row_reaches (w : work) ~n ~blp ~lrow ~pinv =
  let rptr = Array.make (n + 1) 0 and root = [| 0 |] in
  (* Collected in the workspace's L buffer, idle during a plan run. *)
  let out = w.l in
  out.blen <- 0;
  for i = 0 to n - 1 do
    root.(0) <- i;
    let top =
      dfs_reach w ~li:lrow ~lp:blp ~pinv ~roots:root ~lo:0 ~hi:1 ~n
    in
    for t = n - 1 downto top do
      buf_push out w.topo.(t) 0.0
    done;
    rptr.(i + 1) <- out.blen
  done;
  (rptr, Array.sub out.bi 0 (max out.blen 1))

(* The plan of [f], the factorisation of [a]: each step's reach by
   depth-first search through L's structural pattern, in which every
   non-pivotal row of a reach is an entry even where its value
   cancelled to zero. A companion G + hC has the structure without the
   cancellation (G's floating routing tree cancels exactly at the
   driven node), so this, not G's numeric reach, is the reach its full
   factorisation would take. A reach row already pivotal is an update;
   any other is a candidate, and every candidate but the pivot an L
   entry, so the workspace's structural L is the plan's. *)
let plans = Obs.Counter.make "sparse.plans"

let plan_of (a : Csc.t) (f : t) =
  Obs.Counter.incr plans;
  let n = f.n and q = f.q and pivots = f.p in
  let qinv = Array.make n 0 in
  Array.iteri (fun k c -> qinv.(c) <- k) q;
  let w = workspace n in
  let pinv = w.pinv in
  let upd = buf_create (2 * n) and cand = buf_create (2 * n) in
  let uptr = Array.make (n + 1) 0 and cptr = Array.make (n + 1) 0 in
  let blp = Array.make (n + 1) 0 and diag = Array.make n false in
  for k = 0 to n - 1 do
    let col = q.(k) in
    let top =
      dfs_reach w ~li:w.l.bi ~lp:blp ~pinv ~roots:a.Csc.rowind
        ~lo:a.Csc.colptr.(col) ~hi:a.Csc.colptr.(col + 1) ~n
    in
    pinv.(pivots.(k)) <- k;
    for t = top to n - 1 do
      let i = w.topo.(t) in
      if pinv.(i) >= 0 && pinv.(i) < k then buf_push upd i 0.0
      else begin
        buf_push cand i 0.0;
        if i = q.(k) then diag.(k) <- true;
        if pinv.(i) < 0 then buf_push w.l i 0.0
      end
    done;
    uptr.(k + 1) <- upd.blen;
    cptr.(k + 1) <- cand.blen;
    blp.(k + 1) <- w.l.blen
  done;
  let rows b = Array.sub b.bi 0 (max b.blen 1) in
  let steps_of b = Array.init (max b.blen 1) (fun t -> pinv.(b.bi.(t))) in
  {
    sym = { Symbolic.n; q };
    pattern = a;
    steps = n;
    qinv;
    pivots;
    pinv = Array.sub pinv 0 n;
    uptr;
    urow = rows upd;
    ucol = steps_of upd;
    cptr;
    cand = rows cand;
    diag;
    blp;
    lrow = rows w.l;
    lstep = steps_of w.l;
    reaches = Atomic.make None;
    p_grown = Array.append pivots [| n |];
    q_grown = Array.append q [| n |];
  }

let try_factor_with_plan ?symbolic a =
  Result.map (fun f -> (f, plan_of a f)) (try_factor ?symbolic a)

let plan_permutations pl = (pl.pivots, pl.sym.Symbolic.q)
let permutations (t : t) = (t.p, t.q)

(* Factor arrays kept between refactors, grown on demand. *)
type buffer = {
  mutable flx : float array;
  mutable fli : int array;
  mutable flp : int array;
  mutable fux : float array;
  mutable fui : int array;
  mutable fup : int array;
  mutable fdiag : float array;
  mutable fscratch : float array;
}

let buffer () =
  { flx = [||]; fli = [||]; flp = [||]; fux = [||]; fui = [||]; fup = [||];
    fdiag = [||]; fscratch = [||] }

(* The plan run on [values] (the pattern's slots) and the entries [e]
   of at most one appended unknown a = steps: its row's entries in base
   columns, scattered at the step of their column, then its column.
   The appended row rides along: updated through the L columns that
   hold it, stored after their base rows, never in a base reach (a
   non-pivotal leaf does not change the order of the rows around it).
   The appended column, eliminated last, takes the reach a depth-first
   search through the new L would, merged from its rows' recorded
   reaches. [None] declines: the appended row is not finite or reaches
   the base rows' maximum (it could win the pivot or move the
   threshold), the rule picks another pivot than the plan's, or an L
   entry of the plan cancels to an exact zero (the full kernel would
   drop it, and with it part of later reaches). A pivot below the floor
   is the full kernel's verdict too: up to it both computed the same.
   The factor's arrays come from [b]. *)
let run_plan b pl values (e : Csc.entries) ~n ~floor =
  let steps = pl.steps in
  let grown = n > steps in
  let a = steps in
  let w = workspace (steps + 1) in
  let x = w.x in
  let ecols = e.Csc.cols and erows = e.Csc.rows and evals = e.Csc.vals in
  let m = e.Csc.len in
  let na =
    let t = ref 0 in
    while !t < m && ecols.(!t) < steps do incr t done;
    !t
  in
  let pc = pl.pattern.Csc.colptr and pr = pl.pattern.Csc.rowind in
  let q = pl.sym.Symbolic.q and qinv = pl.qinv and pivots = pl.pivots in
  let uptr = pl.uptr and urow = pl.urow and ucol = pl.ucol in
  let cptr = pl.cptr and cand = pl.cand and diag = pl.diag in
  let blp = pl.blp and lrow = pl.lrow and lstep = pl.lstep in
  let lcap = max 1 (blp.(steps) + if grown then steps else 0) in
  let ucap = max 1 (uptr.(steps) + if grown then steps else 0) in
  b.flx <- Scratch.floats b.flx lcap;
  b.fux <- Scratch.floats b.fux ucap;
  b.fui <- Scratch.ints b.fui ucap;
  b.fup <- Scratch.ints b.fup (n + 1);
  b.fdiag <- Scratch.floats b.fdiag n;
  b.fscratch <- Scratch.floats b.fscratch n;
  if grown then begin
    b.fli <- Scratch.ints b.fli lcap;
    b.flp <- Scratch.ints b.flp (n + 1)
  end;
  let lx = b.flx and ui = b.fui and ux = b.fux in
  let li = if grown then b.fli else lstep in
  let lp = if grown then b.flp else blp in
  let up = b.fup and udiag = b.fdiag in
  lp.(0) <- 0;
  up.(0) <- 0;
  (* x -= xi · L(:,j), xi = x.(i) of the row i pivotal at step j, which
     L(:,j) does not hold: its base rows, then the appended row's entry
     when the column holds one. The row, not its value, is passed, so
     no float is boxed per call. Unchecked accesses: the plan's rows
     and positions come from a factorisation of this pattern, all below
     steps + 1 and within the L arrays sized from it. *)
  let update j i =
    let xi = x.(i) in
    let b = blp.(j) and f = lp.(j) in
    let len = blp.(j + 1) - b in
    for t = 0 to len - 1 do
      let r = Array.unsafe_get lrow (b + t) in
      Array.unsafe_set x r
        (Array.unsafe_get x r -. (Array.unsafe_get lx (f + t) *. xi))
    done;
    if lp.(j + 1) - f > len then x.(a) <- x.(a) -. (lx.(f + len) *. xi)
  in
  (* 0 while the base steps run, then 1 declined or 2 singular at
     column [failed]. *)
  let verdict = ref 0 and failed = ref 0 in
  let uo = ref 0 and k = ref 0 in
  while !verdict = 0 && !k < steps do
    let k' = !k in
    let col = q.(k') in
    for s = pc.(col) to pc.(col + 1) - 1 do
      x.(pr.(s)) <- values.(s)
    done;
    for t = 0 to na - 1 do
      if qinv.(ecols.(t)) = k' then x.(a) <- evals.(t)
    done;
    for t = uptr.(k') to uptr.(k' + 1) - 1 do
      let i = urow.(t) in
      if x.(i) <> 0.0 then update ucol.(t) i
    done;
    let piv = ref (-1) and pmax = ref 0.0 in
    for t = cptr.(k') to cptr.(k' + 1) - 1 do
      let i = cand.(t) in
      let av = abs_float x.(i) in
      if av > !pmax then begin
        pmax := av;
        piv := i
      end
    done;
    let xe = x.(a) in
    if (not (Float.is_finite xe)) || (xe <> 0.0 && abs_float xe >= !pmax)
    then verdict := 1
    else begin
      if
        !piv >= 0 && diag.(k')
        && abs_float x.(col) >= pivot_tolerance *. !pmax
      then piv := col;
      let piv = !piv in
      let pivot = if piv >= 0 then x.(piv) else 0.0 in
      if piv < 0 || abs_float pivot < floor || not (Float.is_finite pivot)
      then begin
        verdict := 2;
        failed := col
      end
      else if piv <> pivots.(k') then verdict := 1
      else begin
        udiag.(k') <- pivot;
        for t = uptr.(k') to uptr.(k' + 1) - 1 do
          let i = urow.(t) in
          let xi = x.(i) in
          if xi <> 0.0 then begin
            ui.(!uo) <- ucol.(t);
            ux.(!uo) <- xi;
            incr uo
          end;
          x.(i) <- 0.0
        done;
        up.(k' + 1) <- !uo;
        let f = lp.(k') and b = blp.(k') in
        let o = ref 0 in
        for t = cptr.(k') to cptr.(k' + 1) - 1 do
          let i = cand.(t) in
          if i <> piv then begin
            let xi = x.(i) in
            if xi = 0.0 then verdict := 1;
            lx.(f + !o) <- xi /. pivot;
            if grown then li.(f + !o) <- lstep.(b + !o);
            incr o
          end;
          x.(i) <- 0.0
        done;
        if grown then begin
          if xe <> 0.0 then begin
            lx.(f + !o) <- xe /. pivot;
            li.(f + !o) <- a;
            incr o
          end;
          x.(a) <- 0.0;
          lp.(k' + 1) <- f + !o
        end;
        incr k
      end
    end
  done;
  if !verdict = 0 && grown then begin
    (* The appended column's reach, as the depth-first search from its
       rows would take it. Marks carry over from root to root, and a
       marked row's whole reach is marked, so each root adds the
       unmarked rows of its recorded reach in their order. The
       appended row is a leaf each L column holding it enters after its
       base rows: it finishes just before the first such column's row,
       or as a root of its own. *)
    let pinv = pl.pinv in
    let rptr, rreach =
      match Atomic.get pl.reaches with
      | Some r -> r
      | None ->
          let r = row_reaches w ~n:steps ~blp ~lrow ~pinv in
          Atomic.set pl.reaches (Some r);
          r
    in
    w.gen <- w.gen + 1;
    let gen = w.gen in
    let mark = w.mark and topo = w.topo in
    let top = ref n in
    for t = na to m - 1 do
      let root = erows.(t) in
      if root = a then begin
        if mark.(a) <> gen then begin
          mark.(a) <- gen;
          decr top;
          topo.(!top) <- a
        end
      end
      else
        for s = rptr.(root) to rptr.(root + 1) - 1 do
          let i = rreach.(s) in
          if mark.(i) <> gen then begin
            let j = pinv.(i) in
            if mark.(a) <> gen && lp.(j + 1) - lp.(j) > blp.(j + 1) - blp.(j)
            then begin
              mark.(a) <- gen;
              decr top;
              topo.(!top) <- a
            end;
            mark.(i) <- gen;
            decr top;
            topo.(!top) <- i
          end
        done
    done;
    for t = na to m - 1 do
      x.(erows.(t)) <- evals.(t)
    done;
    let diagonal = ref false in
    for t = !top to n - 1 do
      let i = topo.(t) in
      if i = a then diagonal := true
      else if x.(i) <> 0.0 then update pinv.(i) i
    done;
    (* The appended row is the only non-pivotal one left. *)
    let pivot = x.(a) in
    if
      (not !diagonal) || abs_float pivot <= 0.0
      || abs_float pivot < floor || not (Float.is_finite pivot)
    then begin
      verdict := 2;
      failed := a
    end
    else begin
      udiag.(steps) <- pivot;
      for t = !top to n - 1 do
        let i = topo.(t) in
        let xi = x.(i) in
        if i <> a && xi <> 0.0 then begin
          ui.(!uo) <- pinv.(i);
          ux.(!uo) <- xi;
          incr uo
        end;
        x.(i) <- 0.0
      done;
      lp.(n) <- lp.(steps);
      up.(n) <- !uo
    end
  end;
  match !verdict with
  | 1 -> None
  | 2 -> Some (Error !failed)
  | _ ->
      Some
        (Ok
           {
             n;
             lp;
             li;
             lx;
             up;
             ui;
             ux;
             udiag;
             p = (if grown then pl.p_grown else pivots);
             q = (if grown then pl.q_grown else q);
             scratch = b.fscratch;
           })

(* The entries the plan takes: at most one appended unknown, whose row
   entries in base columns come first and whose column comes last,
   every entry sorted by column then row. *)
let plan_fits pl (e : Csc.entries) ~n =
  let steps = pl.steps in
  let m = e.Csc.len in
  n - steps <= 1
  && (m = 0 || n > steps)
  &&
  let ok = ref true in
  for t = 0 to m - 1 do
    let c = e.Csc.cols.(t) and r = e.Csc.rows.(t) in
    if r < 0 || r > steps || c < 0 || c > steps then ok := false
    else if c < steps && r <> steps then ok := false
    else if
      t > 0
      && (e.Csc.cols.(t - 1) > c
         || (e.Csc.cols.(t - 1) = c && e.Csc.rows.(t - 1) >= r))
    then ok := false
  done;
  !ok

let refactor ~into pl values ~n (e : Csc.entries) =
  let steps = pl.steps in
  let m = e.Csc.len in
  let pnz = Csc.nnz pl.pattern in
  if n < steps || Array.length values < pnz then
    invalid_arg "Sparse.refactor: size mismatch";
  Csc.check_entries ~fn:"Sparse.refactor" e;
  Obs.Counter.incr factorizations;
  let amax = [| 0.0 |] and zeros = ref 0 in
  let finite = scan_values values pnz ~amax ~zeros in
  let finite = scan_values e.Csc.vals m ~amax ~zeros && finite in
  let anz = pnz + m - !zeros in
  Obs.Counter.add nnz_counter anz;
  if not finite then begin
    Obs.Counter.incr singular_factorizations;
    Error (-1)
  end
  else begin
    let floor = pivot_floor_of amax.(0) in
    match
      if !zeros = 0 && plan_fits pl e ~n then
        run_plan into pl values e ~n ~floor
      else None
    with
    | Some (Ok f as factored) ->
        Obs.Counter.incr refactors;
        if Obs.enabled () && anz > 0 then
          Obs.Histogram.observe fill_hist
            (float_of_int (factor_nnz f) /. float_of_int anz);
        factored
    | Some (Error _ as singular) ->
        Obs.Counter.incr refactors;
        Obs.Counter.incr singular_factorizations;
        singular
    | None ->
        Obs.Counter.incr refactor_fallbacks;
        let a = Csc.grow pl.pattern values ~n e in
        factor_ordered (Symbolic.extend pl.sym (n - steps)) a ~floor
  end

(* L then U in elimination order. Unchecked accesses: [y] is checked
   against n, and a factorisation's column pointers and row indices
   (all < n) are built together by [try_factor]. *)
let solve_ordered t y =
  let n = t.n in
  if Array.length y < n then invalid_arg "Sparse.solve_ordered: too short";
  let lp = t.lp and li = t.li and lx = t.lx in
  let up = t.up and ui = t.ui and ux = t.ux and udiag = t.udiag in
  (* Forward: L unit lower, columns scatter downward. *)
  for k = 0 to n - 1 do
    let yk = Array.unsafe_get y k in
    if yk <> 0.0 then
      for pp = Array.unsafe_get lp k to Array.unsafe_get lp (k + 1) - 1 do
        let i = Array.unsafe_get li pp in
        Array.unsafe_set y i
          (Array.unsafe_get y i -. (Array.unsafe_get lx pp *. yk))
      done
  done;
  (* Backward: U strictly upper plus diagonal. *)
  for k = n - 1 downto 0 do
    let zk = Array.unsafe_get y k /. Array.unsafe_get udiag k in
    Array.unsafe_set y k zk;
    if zk <> 0.0 then
      for pp = Array.unsafe_get up k to Array.unsafe_get up (k + 1) - 1 do
        let i = Array.unsafe_get ui pp in
        Array.unsafe_set y i
          (Array.unsafe_get y i -. (Array.unsafe_get ux pp *. zk))
      done
  done

(* PAQ = LU: permute b by P, solve in elimination order, scatter back
   through Q. Unchecked accesses: [b] and [work] are checked against n,
   and a factorisation's permutations hold indices below n. *)
let solve_with ~work t b =
  let n = t.n in
  if Array.length b <> n then invalid_arg "Sparse.solve: length mismatch";
  if Array.length work < n then invalid_arg "Sparse.solve: work too short";
  let y = work in
  for k = 0 to n - 1 do
    Array.unsafe_set y k (Array.unsafe_get b (Array.unsafe_get t.p k))
  done;
  solve_ordered t y;
  for k = 0 to n - 1 do
    Array.unsafe_set b (Array.unsafe_get t.q k) (Array.unsafe_get y k)
  done

let solve_in_place t b = solve_with ~work:t.scratch t b

let solve t b =
  let x = Array.copy b in
  solve_in_place t x;
  x

(* Sherman–Morrison for M = A + g·w·wᵀ, w = e_i − e_j: with z = A⁻¹w
   and s = 1/g + wᵀz, M⁻¹b = A⁻¹b − z·(wᵀA⁻¹b)/s. A non-finite or zero
   s, or one that cancels to below 1e-10 of the magnitudes summed into
   it, means M is numerically singular although s is representable.
   The counter keeps its older name: benchmark reports read it. *)
let rank1_updates = Obs.Counter.make "lu.rank1_updates"

let with_conductance ~work ~z t i j g =
  let n = size t in
  if i < 0 || i >= n || j < 0 || j >= n || i = j then
    invalid_arg "Sparse.with_conductance: bad unknown";
  if not (Float.is_finite g) then None
  else begin
    Obs.Counter.incr rank1_updates;
    if Array.length z <> n then
      invalid_arg "Sparse.with_conductance: z of the wrong length";
    Array.fill z 0 n 0.0;
    z.(i) <- 1.0;
    z.(j) <- -1.0;
    solve_with ~work t z;
    let wz = z.(i) -. z.(j) in
    let inv_g = 1.0 /. g in
    let s = inv_g +. wz in
    if
      (not (Float.is_finite s))
      || s = 0.0
      || abs_float s < 1e-10 *. Float.max (abs_float inv_g) (abs_float wz)
    then None
    else
      Some
        (fun x ->
          if Array.length x < n then
            invalid_arg "Sparse.with_conductance: array too short";
          let c = (x.(i) -. x.(j)) /. s in
          for k = 0 to n - 1 do
            x.(k) <- x.(k) -. (z.(k) *. c)
          done)
  end
