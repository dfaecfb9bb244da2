type t = {
  n : int;
  lu : float array;  (* packed LU factors, row-major *)
  perm : int array;  (* row permutation: row i of LU is row perm.(i) of A *)
  scratch : float array;  (* reused by solve_in_place *)
  anorm1 : float;    (* 1-norm of the original matrix, for rcond *)
}

exception Singular of int

(* Every MNA stamp, transient step-size change and rcond probe lands
   here, so the factorisation count is the truest "linear algebra work
   done" metric the manifest carries. *)
let factorizations = Obs.Counter.make "lu.factorizations"
let singular_factorizations = Obs.Counter.make "lu.singular"

let pivot_floor = 1e-300

(* A pivot this small relative to the largest entry of the input means
   the matrix is numerically rank-deficient: dividing by it would
   produce ~1e13x amplification, i.e. garbage dressed up as a solution.
   The absolute 1e-300 floor additionally catches exact zeros in
   all-tiny matrices. *)
let relative_pivot_threshold = 1e-13

(* [count:false] keeps the tiny k×k capacitance-matrix factorisations
   of [Update] out of [lu.factorizations]: that counter is the "full
   system factored" work metric, and the whole point of the low-rank
   path is that it avoids those. Update work is tallied separately
   under [lu.rank1_updates]. *)
let try_factor_gen ~count m =
  let n = Matrix.rows m in
  if Matrix.cols m <> n then invalid_arg "Lu.factor: matrix not square";
  if count then Obs.Counter.incr factorizations;
  let a = Array.make (n * n) 0.0 in
  let amax = ref 0.0 and finite = ref true in
  let col_sums = Array.make n 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let v = Matrix.get m i j in
      a.((i * n) + j) <- v;
      let av = abs_float v in
      if not (Float.is_finite v) then finite := false;
      if av > !amax then amax := av;
      col_sums.(j) <- col_sums.(j) +. av
    done
  done;
  if not !finite then begin
    if count then Obs.Counter.incr singular_factorizations;
    Error (-1)
  end
  else begin
    let anorm1 = Array.fold_left Float.max 0.0 col_sums in
    let floor = Float.max pivot_floor (relative_pivot_threshold *. !amax) in
    let perm = Array.init n Fun.id in
    let result = ref None in
    (try
       for k = 0 to n - 1 do
         (* Partial pivoting: bring the largest |entry| of column k up. *)
         let p = ref k in
         for i = k + 1 to n - 1 do
           if abs_float a.((i * n) + k) > abs_float a.((!p * n) + k) then
             p := i
         done;
         if !p <> k then begin
           for j = 0 to n - 1 do
             let tmp = a.((k * n) + j) in
             a.((k * n) + j) <- a.((!p * n) + j);
             a.((!p * n) + j) <- tmp
           done;
           let tmp = perm.(k) in
           perm.(k) <- perm.(!p);
           perm.(!p) <- tmp
         end;
         let pivot = a.((k * n) + k) in
         if abs_float pivot < floor || not (Float.is_finite pivot) then begin
           result := Some (Error k);
           raise Exit
         end;
         for i = k + 1 to n - 1 do
           let f = a.((i * n) + k) /. pivot in
           a.((i * n) + k) <- f;
           if f <> 0.0 then begin
             let row_i = i * n and row_k = k * n in
             for j = k + 1 to n - 1 do
               Array.unsafe_set a (row_i + j)
                 (Array.unsafe_get a (row_i + j)
                 -. (f *. Array.unsafe_get a (row_k + j)))
             done
           end
         done
       done
     with Exit -> ());
    match !result with
    | Some err ->
        if count then Obs.Counter.incr singular_factorizations;
        err
    | None ->
        Ok
          { n; lu = a; perm; scratch = Array.make n 0.0; anorm1 }
  end

let try_factor m = try_factor_gen ~count:true m

let factor m =
  match try_factor m with Ok t -> t | Error k -> raise (Singular k)

(* [work] is the intermediate-vector buffer. [solve_in_place] passes
   the factorisation's own scratch; the low-rank [Update] solver passes
   a private buffer instead, so a base factorisation shared between
   worker domains stays read-only during its solves. *)
let solve_with ~work t b =
  let n = t.n in
  if Array.length b <> n then invalid_arg "Lu.solve: length mismatch";
  let lu = t.lu in
  (* Apply permutation. *)
  let y = work in
  for i = 0 to n - 1 do
    y.(i) <- b.(t.perm.(i))
  done;
  (* Forward substitution Ly' = Pb (L has unit diagonal). *)
  for i = 1 to n - 1 do
    let row = i * n in
    let s = ref (Array.unsafe_get y i) in
    for j = 0 to i - 1 do
      s := !s -. (Array.unsafe_get lu (row + j) *. Array.unsafe_get y j)
    done;
    Array.unsafe_set y i !s
  done;
  (* Back substitution Ux = y'. *)
  for i = n - 1 downto 0 do
    let row = i * n in
    let s = ref (Array.unsafe_get y i) in
    for j = i + 1 to n - 1 do
      s := !s -. (Array.unsafe_get lu (row + j) *. Array.unsafe_get y j)
    done;
    Array.unsafe_set y i (!s /. Array.unsafe_get lu (row + i))
  done;
  Array.blit y 0 b 0 n

let solve_in_place t b = solve_with ~work:t.scratch t b

let size t = t.n

let solve t b =
  let x = Array.copy b in
  solve_in_place t x;
  x

(* Solve A^T w = b. With PA = LU we have A^T = U^T L^T P, so: forward
   substitution on U^T (diagonal from U), back substitution on L^T
   (unit diagonal), then undo the permutation. *)
let solve_transpose_in_place t b =
  let n = t.n in
  if Array.length b <> n then invalid_arg "Lu.solve_transpose: length mismatch";
  let lu = t.lu in
  let y = t.scratch in
  Array.blit b 0 y 0 n;
  (* U^T y' = b: U^T is lower triangular with U's diagonal. *)
  for i = 0 to n - 1 do
    let s = ref (Array.unsafe_get y i) in
    for j = 0 to i - 1 do
      s := !s -. (Array.unsafe_get lu ((j * n) + i) *. Array.unsafe_get y j)
    done;
    Array.unsafe_set y i (!s /. Array.unsafe_get lu ((i * n) + i))
  done;
  (* L^T v = y': L^T is upper triangular with unit diagonal. *)
  for i = n - 1 downto 0 do
    let s = ref (Array.unsafe_get y i) in
    for j = i + 1 to n - 1 do
      s := !s -. (Array.unsafe_get lu ((j * n) + i) *. Array.unsafe_get y j)
    done;
    Array.unsafe_set y i !s
  done;
  (* v = P w, i.e. w.(perm.(i)) = v.(i). *)
  for i = 0 to n - 1 do
    b.(t.perm.(i)) <- y.(i)
  done

let norm1 v = Array.fold_left (fun acc x -> acc +. abs_float x) 0.0 v

(* Hager's 1-norm condition estimator: a handful of solves with A and
   A^T produce a lower bound on ||A^-1||_1, hence an upper bound on
   rcond = 1 / (||A||_1 ||A^-1||_1). *)
let rcond t =
  if t.n = 0 then 1.0
  else if t.anorm1 = 0.0 then 0.0
  else begin
    let n = t.n in
    let x = Array.make n (1.0 /. float_of_int n) in
    let est = ref 0.0 in
    (try
       for _iter = 0 to 4 do
         let z = solve t x in
         est := Float.max !est (norm1 z);
         let xi =
           Array.map (fun v -> if v >= 0.0 then 1.0 else -1.0) z
         in
         solve_transpose_in_place t xi;
         (* xi now holds w = A^-T sign(z). *)
         let j = ref 0 in
         for i = 1 to n - 1 do
           if abs_float xi.(i) > abs_float xi.(!j) then j := i
         done;
         let wx =
           let s = ref 0.0 in
           for i = 0 to n - 1 do
             s := !s +. (xi.(i) *. x.(i))
           done;
           !s
         in
         if abs_float xi.(!j) <= wx then raise Exit;
         Array.fill x 0 n 0.0;
         x.(!j) <- 1.0
       done
     with Exit -> ());
    if !est = 0.0 || not (Float.is_finite !est) then 0.0
    else Float.min 1.0 (1.0 /. (t.anorm1 *. !est))
  end

let solve_matrix m b = solve (factor m) b

(* Low-rank (Sherman–Morrison–Woodbury) updates ------------------------- *)

module Update = struct
  (* M = [[A, 0], [0, 0]] + Σ_i α_i·u_i·v_iᵀ over n0+pad unknowns, where
     A is the already-factored base. Internally the pad block carries a
     γ·I placeholder (so the block matrix Â is invertible) cancelled by
     explicit −γ·e_j·e_jᵀ terms, which turns the whole delta into plain
     rank-1 algebra:

       M⁻¹b = Â⁻¹b − Z·S⁻¹·Vᵀ·Â⁻¹b,  Z = Â⁻¹U,  S = C⁻¹ + Vᵀ·Z

     with C = diag(α). Building an update costs k extended base solves
     (O(k·n²)) plus one k×k factorisation; each [solve] is then O(n²)
     with no full factorisation at all. *)

  (* The base is any factorisation-like solver: all the Woodbury
     algebra ever needs from it is its size and a workspace-threaded
     in-place solve, so a sparse base (via Backend) plugs in with a
     closure and the rank-1 machinery is shared verbatim. *)
  type base_solver = {
    base_n : int;
    base_solve : work:float array -> float array -> unit;
  }

  type nonrec t = {
    base : base_solver;
    pad : int;
    nt : int;  (* n0 + pad *)
    k : int;  (* rank-1 terms, pad corrections included *)
    gamma : float;  (* pad-block placeholder scale *)
    z : float array;  (* nt×k, column c at offset c·nt: Â⁻¹·u_c *)
    vmat : float array;  (* k×nt, row c = v_c *)
    s_lu : t option;  (* capacitance-matrix factorisation; None iff k = 0 *)
    headwork : float array;  (* n0: slice buffer for base solves *)
    basework : float array;  (* n0: scratch handed to solve_with *)
    kwork : float array;  (* k: the small solve's right-hand side *)
  }

  let rank1_updates = Obs.Counter.make "lu.rank1_updates"
  let default_rcond_floor = 1e-10

  (* Â x = b in place, Â = [[A, 0], [0, γI]]. *)
  let ext_solve ~base ~pad ~gamma ~headwork ~basework b =
    let n0 = Array.length headwork in
    Array.blit b 0 headwork 0 n0;
    base.base_solve ~work:basework headwork;
    Array.blit headwork 0 b 0 n0;
    for j = 0 to pad - 1 do
      b.(n0 + j) <- b.(n0 + j) /. gamma
    done

  let finite_term (a, u, v) =
    Float.is_finite a
    && Array.for_all Float.is_finite u
    && Array.for_all Float.is_finite v

  let make_with ?(pad = 0) ?(rcond_floor = default_rcond_floor) ~n
      ~solve_with:base_solve terms =
    if pad < 0 then invalid_arg "Lu.Update.make: negative pad";
    if n < 0 then invalid_arg "Lu.Update.make: negative size";
    let base = { base_n = n; base_solve } in
    let n0 = base.base_n in
    let nt = n0 + pad in
    List.iter
      (fun (_, u, v) ->
        if Array.length u <> nt || Array.length v <> nt then
          invalid_arg "Lu.Update.make: term length mismatch")
      terms;
    let user_terms = List.filter (fun (a, _, _) -> a <> 0.0) terms in
    if not (List.for_all finite_term user_terms) then None
    else begin
      (* Scale the pad placeholder like the stamps around it, so S does
         not mix wildly different magnitudes for conditioning reasons
         alone. *)
      let gamma =
        if pad = 0 then 1.0
        else begin
          let s =
            List.fold_left
              (fun acc (a, _, _) -> acc +. abs_float a)
              0.0 user_terms
          in
          let m = List.length user_terms in
          if m = 0 || s <= 0.0 then 1.0 else s /. float_of_int m
        end
      in
      let pad_terms =
        List.init pad (fun j ->
            let e = Array.make nt 0.0 in
            e.(n0 + j) <- 1.0;
            (-.gamma, e, e))
      in
      let all = user_terms @ pad_terms in
      let k = List.length all in
      Obs.Counter.add rank1_updates k;
      let headwork = Array.make n0 0.0 in
      let basework = Array.make n0 0.0 in
      if k = 0 then
        Some
          { base; pad; nt; k; gamma; z = [||]; vmat = [||]; s_lu = None;
            headwork; basework; kwork = [||] }
      else begin
        let alpha = Array.of_list (List.map (fun (a, _, _) -> a) all) in
        let z = Array.make (nt * k) 0.0 in
        let vmat = Array.make (k * nt) 0.0 in
        List.iteri
          (fun c (_, u, v) ->
            Array.blit v 0 vmat (c * nt) nt;
            let col = Array.copy u in
            ext_solve ~base ~pad ~gamma ~headwork ~basework col;
            Array.blit col 0 z (c * nt) nt)
          all;
        (* S = C⁻¹ + Vᵀ·Z, tracking the largest magnitude that went
           into any entry: a pivot tiny against that scale means the
           updated matrix is numerically singular even though the
           pivot itself is representable (classic Sherman–Morrison
           denominator cancellation). *)
        let s = Matrix.create k k in
        let scale = ref 0.0 in
        for r = 0 to k - 1 do
          for c = 0 to k - 1 do
            let diag = if r = c then 1.0 /. alpha.(r) else 0.0 in
            let dot = ref 0.0 in
            for i = 0 to nt - 1 do
              dot := !dot +. (vmat.((r * nt) + i) *. z.((c * nt) + i))
            done;
            scale := Float.max !scale (Float.max (abs_float diag) (abs_float !dot));
            Matrix.set s r c (diag +. !dot)
          done
        done;
        match try_factor_gen ~count:false s with
        | Error _ -> None
        | Ok s_lu ->
            let min_pivot = ref infinity in
            for i = 0 to k - 1 do
              min_pivot :=
                Float.min !min_pivot (abs_float s_lu.lu.((i * k) + i))
            done;
            if
              !min_pivot < rcond_floor *. !scale
              || rcond s_lu < rcond_floor
            then None
            else
              Some
                { base; pad; nt; k; gamma; z; vmat; s_lu = Some s_lu;
                  headwork; basework; kwork = Array.make k 0.0 }
      end
    end

  let make ?pad ?rcond_floor base terms =
    make_with ?pad ?rcond_floor ~n:base.n
      ~solve_with:(fun ~work b -> solve_with ~work base b)
      terms

  let solve up b =
    if Array.length b <> up.nt then
      invalid_arg "Lu.Update.solve: length mismatch";
    let x = Array.copy b in
    ext_solve ~base:up.base ~pad:up.pad ~gamma:up.gamma ~headwork:up.headwork
      ~basework:up.basework x;
    (match up.s_lu with
    | None -> ()
    | Some s_lu ->
        let nt = up.nt and k = up.k in
        let w = up.kwork in
        for c = 0 to k - 1 do
          let acc = ref 0.0 in
          for i = 0 to nt - 1 do
            acc := !acc +. (up.vmat.((c * nt) + i) *. x.(i))
          done;
          w.(c) <- !acc
        done;
        (* The small factorisation is private to this update, so its
           shared scratch is safe here. *)
        solve_in_place s_lu w;
        for i = 0 to nt - 1 do
          let acc = ref 0.0 in
          for c = 0 to k - 1 do
            acc := !acc +. (up.z.((c * nt) + i) *. w.(c))
          done;
          x.(i) <- x.(i) -. !acc
        done);
    x

  let rank up = up.k
  let size up = up.nt
end
