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

(* The same floors as the dense reference kernel (see lu.ml). The two
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
  type t = {
    rows : int;
    cols : int;
    colptr : int array;  (* length cols+1 *)
    rowind : int array;  (* length nnz, sorted & unique per column *)
    values : float array;  (* length nnz *)
  }

  let rows t = t.rows
  let cols t = t.cols
  let nnz t = t.colptr.(t.cols)

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

  let of_matrix m =
    let rows = Matrix.rows m and cols = Matrix.cols m in
    let a = Matrix.data m in
    let nnz = ref 0 in
    for k = 0 to (rows * cols) - 1 do
      if a.(k) <> 0.0 then incr nnz
    done;
    let colptr = Array.make (cols + 1) 0 in
    let rowind = Array.make (max !nnz 1) 0 in
    let values = Array.make (max !nnz 1) 0.0 in
    let out = ref 0 in
    for j = 0 to cols - 1 do
      colptr.(j) <- !out;
      for i = 0 to rows - 1 do
        let v = a.((i * cols) + j) in
        if v <> 0.0 then begin
          rowind.(!out) <- i;
          values.(!out) <- v;
          incr out
        end
      done
    done;
    colptr.(cols) <- !out;
    { rows; cols; colptr; rowind; values }

  let to_matrix t =
    let m = Matrix.create t.rows t.cols in
    for j = 0 to t.cols - 1 do
      for p = t.colptr.(j) to t.colptr.(j + 1) - 1 do
        Matrix.set m t.rowind.(p) j t.values.(p)
      done
    done;
    m

  let of_columns ~n ~colptr ~rowind ~values =
    let bad () = invalid_arg "Sparse.Csc.of_columns: malformed columns" in
    if n < 0 || Array.length colptr <> n + 1 || colptr.(0) <> 0 then bad ();
    let nz = colptr.(n) in
    if nz > Array.length rowind || nz > Array.length values then bad ();
    for j = 0 to n - 1 do
      let lo = colptr.(j) and hi = colptr.(j + 1) in
      if hi < lo then bad ();
      for p = lo to hi - 1 do
        let i = rowind.(p) in
        if i < 0 || i >= n || (p > lo && rowind.(p - 1) >= i) then bad ()
      done
    done;
    { rows = n; cols = n; colptr; rowind; values }

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

let try_factor ?symbolic (a : Csc.t) =
  let n = Csc.rows a in
  if Csc.cols a <> n then invalid_arg "Sparse.factor: matrix not square";
  Obs.Counter.incr factorizations;
  let anz = Csc.nnz a in
  Obs.Counter.add nnz_counter anz;
  let amax = ref 0.0 and finite = ref true in
  for k = 0 to anz - 1 do
    let v = a.Csc.values.(k) in
    if not (Float.is_finite v) then finite := false;
    let av = abs_float v in
    if av > !amax then amax := av
  done;
  if not !finite then begin
    Obs.Counter.incr singular_factorizations;
    Error (-1)
  end
  else begin
    let q =
      match symbolic with
      | Some s ->
          if s.Symbolic.n <> n then
            invalid_arg "Sparse.factor: symbolic size mismatch";
          s.Symbolic.q
      | None -> (analyze a).Symbolic.q
    in
    let floor = Float.max pivot_floor (relative_pivot_threshold *. !amax) in
    let pinv = Array.make (max n 1) (-1) in
    let p = Array.make (max n 1) 0 in
    let udiag = Array.make (max n 1) 0.0 in
    let lp = Array.make (n + 1) 0 and up = Array.make (n + 1) 0 in
    let lbuf = buf_create ((2 * anz) + n) and ubuf = buf_create ((2 * anz) + n) in
    (* Workspaces for the per-column sparse triangular solve. L's row
       indices stay original until the final remap, so [mark]/[x] are
       indexed by original row. *)
    let x = Array.make (max n 1) 0.0 in
    let mark = Array.make (max n 1) (-1) in
    let stack = Array.make (max n 1) 0 in
    let pstack = Array.make (max n 1) 0 in
    let topo = Array.make (max n 1) 0 in
    let err = ref None in
    let k = ref 0 in
    while !err = None && !k < n do
      let col = q.(!k) in
      (* Reach of A(:,col) through the columns of L already computed:
         iterative DFS with per-node resume positions, emitting a
         topological order into topo.(top..n-1). *)
      let top = ref n in
      for pa = a.Csc.colptr.(col) to a.Csc.colptr.(col + 1) - 1 do
        let root = a.Csc.rowind.(pa) in
        if mark.(root) <> !k then begin
          let head = ref 0 in
          stack.(0) <- root;
          while !head >= 0 do
            let i = stack.(!head) in
            if mark.(i) <> !k then begin
              mark.(i) <- !k;
              pstack.(!head) <- (if pinv.(i) >= 0 then lp.(pinv.(i)) else 0)
            end;
            let advanced = ref false in
            if pinv.(i) >= 0 then begin
              let stop = lp.(pinv.(i) + 1) in
              let pp = ref pstack.(!head) in
              while (not !advanced) && !pp < stop do
                let r = lbuf.bi.(!pp) in
                incr pp;
                if mark.(r) <> !k then begin
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
      (* Numeric solve x = L⁻¹ A(:,col) on the reach (x is all-zero
         outside: every touched entry is cleared below). *)
      for pa = a.Csc.colptr.(col) to a.Csc.colptr.(col + 1) - 1 do
        x.(a.Csc.rowind.(pa)) <- a.Csc.values.(pa)
      done;
      for t = !top to n - 1 do
        let i = topo.(t) in
        let ti = pinv.(i) in
        if ti >= 0 then begin
          let xi = x.(i) in
          if xi <> 0.0 then
            for pp = lp.(ti) to lp.(ti + 1) - 1 do
              x.(lbuf.bi.(pp)) <- x.(lbuf.bi.(pp)) -. (lbuf.bx.(pp) *. xi)
            done
        end
      done;
      (* Threshold partial pivoting over the non-pivotal reach rows,
         preferring the diagonal when competitive. *)
      let piv = ref (-1) and pmax = ref 0.0 in
      for t = !top to n - 1 do
        let i = topo.(t) in
        if pinv.(i) < 0 then begin
          let av = abs_float x.(i) in
          if av > !pmax then begin
            pmax := av;
            piv := i
          end
        end
      done;
      if !piv >= 0 && mark.(col) = !k && pinv.(col) < 0 then begin
        let ad = abs_float x.(col) in
        if ad >= pivot_tolerance *. !pmax then piv := col
      end;
      let pivot = if !piv >= 0 then x.(!piv) else 0.0 in
      if !piv < 0 || abs_float pivot < floor || not (Float.is_finite pivot)
      then begin
        Obs.Counter.incr singular_factorizations;
        err := Some col
      end
      else begin
        p.(!k) <- !piv;
        pinv.(!piv) <- !k;
        udiag.(!k) <- pivot;
        (* Emit U (pivotal rows, in elimination positions) and L
           (non-pivotal rows, original indices for now, scaled by the
           pivot), clearing x as we go. *)
        for t = !top to n - 1 do
          let i = topo.(t) in
          let xi = x.(i) in
          if i <> !piv then begin
            let ti = pinv.(i) in
            if ti >= 0 then begin
              if xi <> 0.0 then buf_push ubuf ti xi
            end
            else if xi <> 0.0 then buf_push lbuf i (xi /. pivot)
          end;
          x.(i) <- 0.0
        done;
        lp.(!k + 1) <- lbuf.blen;
        up.(!k + 1) <- ubuf.blen;
        incr k
      end
    done;
    match !err with
    | Some c -> Error c
    | None ->
        (* Remap L's row indices to pivot positions: every row is
           pivotal by now. *)
        for pp = 0 to lbuf.blen - 1 do
          lbuf.bi.(pp) <- pinv.(lbuf.bi.(pp))
        done;
        let f =
          {
            n;
            lp;
            li = Array.sub lbuf.bi 0 (max lbuf.blen 1);
            lx = Array.sub lbuf.bx 0 (max lbuf.blen 1);
            up;
            ui = Array.sub ubuf.bi 0 (max ubuf.blen 1);
            ux = Array.sub ubuf.bx 0 (max ubuf.blen 1);
            udiag;
            p;
            q = Array.copy q;
            scratch = Array.make (max n 1) 0.0;
          }
        in
        if Obs.enabled () && anz > 0 then
          Obs.Histogram.observe fill_hist
            (float_of_int (factor_nnz f) /. float_of_int anz);
        Ok f
  end

(* PAQ = LU: permute b by P, solve Ly = b̄ then Uz = y in elimination
   order, scatter back through Q. Unchecked accesses: [b] and [work]
   are checked against n above, and a factorisation's permutations,
   column pointers and row indices (all < n) are built together by
   [try_factor]. *)
let solve_with ~work t b =
  let n = t.n in
  if Array.length b <> n then invalid_arg "Sparse.solve: length mismatch";
  if Array.length work < n then invalid_arg "Sparse.solve: work too short";
  let y = work in
  let lp = t.lp and li = t.li and lx = t.lx in
  let up = t.up and ui = t.ui and ux = t.ux and udiag = t.udiag in
  for k = 0 to n - 1 do
    Array.unsafe_set y k (Array.unsafe_get b (Array.unsafe_get t.p k))
  done;
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
  done;
  for k = 0 to n - 1 do
    Array.unsafe_set b (Array.unsafe_get t.q k) (Array.unsafe_get y k)
  done

let solve_in_place t b = solve_with ~work:t.scratch t b

let solve t b =
  let x = Array.copy b in
  solve_in_place t x;
  x

exception Singular of int

let factor ?symbolic a =
  match try_factor ?symbolic a with
  | Ok f -> f
  | Error k -> raise (Singular k)

(* Sherman–Morrison for M = A + g·w·wᵀ, w = e_i − e_j: with z = A⁻¹w
   and s = 1/g + wᵀz, M⁻¹b = A⁻¹b − z·(wᵀA⁻¹b)/s. A non-finite or zero
   s, or one that cancels to below 1e-10 of the magnitudes summed into
   it, means M is numerically singular although s is representable.
   The counter keeps its older name: benchmark reports read it. *)
let rank1_updates = Obs.Counter.make "lu.rank1_updates"

let with_conductance t i j g =
  let n = size t in
  if i < 0 || i >= n || j < 0 || j >= n || i = j then
    invalid_arg "Sparse.with_conductance: bad unknown";
  if not (Float.is_finite g) then None
  else begin
    Obs.Counter.incr rank1_updates;
    let work = Array.make n 0.0 in
    let z = Array.make n 0.0 in
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
        (fun b ->
          let x = Array.copy b in
          solve_with ~work t x;
          let c = (x.(i) -. x.(j)) /. s in
          for k = 0 to n - 1 do
            x.(k) <- x.(k) -. (z.(k) *. c)
          done;
          x)
  end
