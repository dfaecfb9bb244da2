(* Tests for the sparse kernel, and for the dense matrices and LU that
   serve as its reference. *)

open Numeric

let test_matrix_basics () =
  let m = Matrix.create 2 3 in
  Matrix.set m 0 0 1.0;
  Matrix.add_to m 0 0 2.0;
  Alcotest.(check (float 0.0)) "set+add_to" 3.0 (Matrix.get m 0 0);
  Alcotest.(check (float 0.0)) "untouched" 0.0 (Matrix.get m 1 2)

let test_mul_vec () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.(check (array (float 0.0))) "A*v" [| 5.0; 11.0 |]
    (Matrix.mul_vec a [| 1.0; 2.0 |])

let test_lu_known () =
  let a = Matrix.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Lu.solve_matrix a [| 3.0; 5.0 |] in
  Alcotest.(check (float 1e-12)) "x0" 0.8 x.(0);
  Alcotest.(check (float 1e-12)) "x1" 1.4 x.(1)

let test_lu_pivoting_needed () =
  (* Zero top-left pivot forces a row swap. *)
  let a = Matrix.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = Lu.solve_matrix a [| 2.0; 3.0 |] in
  Alcotest.(check (float 1e-12)) "x0" 3.0 x.(0);
  Alcotest.(check (float 1e-12)) "x1" 2.0 x.(1)

let test_lu_singular () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  match Lu.factor a with
  | exception Lu.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular"

let test_lu_try_factor_rank_deficient () =
  (* Rank-deficient within rounding: the pre-threshold code clamped the
     vanishing pivot to 1e-300 and returned garbage solutions. *)
  let a = Matrix.of_arrays [| [| 1.0; 1.0 |]; [| 1.0; 1.0 +. 1e-15 |] |] in
  (match Lu.try_factor a with
  | Error k -> Alcotest.(check int) "failing pivot column" 1 k
  | Ok _ -> Alcotest.fail "expected Error on a rank-deficient matrix");
  (match Lu.factor a with
  | exception Lu.Singular k -> Alcotest.(check int) "factor raises too" 1 k
  | _ -> Alcotest.fail "expected Singular");
  let nan_m = Matrix.of_arrays [| [| Float.nan; 0.0 |]; [| 0.0; 1.0 |] |] in
  (match Lu.try_factor nan_m with
  | Error k -> Alcotest.(check int) "non-finite input flag" (-1) k
  | Ok _ -> Alcotest.fail "expected Error on a NaN matrix");
  let inf_m =
    Matrix.of_arrays [| [| Float.infinity; 0.0 |]; [| 0.0; 1.0 |] |]
  in
  match Lu.try_factor inf_m with
  | Error k -> Alcotest.(check int) "infinite input flag" (-1) k
  | Ok _ -> Alcotest.fail "expected Error on an Inf matrix"

(* Random diagonally-dominant systems are well conditioned, so the
   residual must be tiny. *)
let random_dd_system seed n =
  let g = Rng.create seed in
  let a = Matrix.create n n in
  for i = 0 to n - 1 do
    let row_sum = ref 0.0 in
    for j = 0 to n - 1 do
      if i <> j then begin
        let v = Rng.float_in g (-1.0) 1.0 in
        Matrix.set a i j v;
        row_sum := !row_sum +. abs_float v
      end
    done;
    Matrix.set a i i (!row_sum +. 1.0 +. Rng.float g 2.0)
  done;
  let b = Array.init n (fun _ -> Rng.float_in g (-10.0) 10.0) in
  (a, b)

let prop_lu_residual =
  QCheck.Test.make ~name:"LU solve residual small" ~count:60
    QCheck.(pair small_int (int_range 1 40))
    (fun (seed, n) ->
      let a, b = random_dd_system seed n in
      let x = Lu.solve_matrix a b in
      Matrix.max_abs_diff (Matrix.mul_vec a x) b < 1e-8)

let prop_lu_solve_in_place_matches =
  QCheck.Test.make ~name:"solve_in_place = solve" ~count:40
    QCheck.(pair small_int (int_range 1 20))
    (fun (seed, n) ->
      let a, b = random_dd_system seed n in
      let f = Lu.factor a in
      let x1 = Lu.solve f b in
      let x2 = Array.copy b in
      Lu.solve_in_place f x2;
      Matrix.max_abs_diff x1 x2 = 0.0)

(* One added conductance over a factored base (Sherman–Morrison) ------- *)

(* A + g·(e_i − e_j)(e_i − e_j)ᵀ, built explicitly. *)
let with_conductance_dense a i j g =
  let m = Matrix.copy a in
  Matrix.add_to m i i g;
  Matrix.add_to m j j g;
  Matrix.add_to m i j (-.g);
  Matrix.add_to m j i (-.g);
  m

(* The update, its one solve in a fresh workspace: the correction to
   apply, or [None] for a singular update. *)
let update f i j g =
  let n = Sparse.size f in
  let z = Array.make n 0.0 in
  let s = Sparse.with_conductance ~work:(Array.make n 0.0) ~z f i j g in
  if Float.is_nan s then None
  else Some (fun x -> Sparse.apply_conductance ~z i j s x)

(* A solve against [f], corrected for the added conductance. *)
(* [Sparse.try_factor] of a matrix the test knows to be regular. *)
let factor a =
  match Sparse.try_factor (Matrix.to_csc a) with
  | Ok f -> f
  | Error k -> Alcotest.failf "singular at column %d" k

let corrected_solve f correct b =
  let x = Sparse.solve f b in
  correct x;
  x

let test_lu_update_known () =
  (* [[2,1],[1,3]] plus a unit conductance between 0 and 1 is
     [[3,0],[0,4]]; it maps [1,1] to [3,4]. *)
  let a = Matrix.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let f = factor a in
  (match update f 0 1 1.0 with
  | None -> Alcotest.fail "well-conditioned update refused"
  | Some correct ->
      let x = corrected_solve f correct [| 3.0; 4.0 |] in
      Alcotest.(check (float 1e-12)) "x0" 1.0 x.(0);
      Alcotest.(check (float 1e-12)) "x1" 1.0 x.(1));
  (* Random systems against a fresh dense LU of the updated matrix. *)
  List.iter
    (fun (seed, n, i, j, g) ->
      let a, b = random_dd_system seed n in
      let base = factor a in
      match update base i j g with
      | None -> Alcotest.failf "seed %d: well-conditioned update refused" seed
      | Some correct ->
          let solve = corrected_solve base correct in
          let x = solve b in
          let fresh = Lu.solve_matrix (with_conductance_dense a i j g) b in
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "seed %d agrees with a fresh LU" seed)
            0.0 (Matrix.max_abs_diff x fresh);
          (* The correction is reusable and leaves the base untouched. *)
          Alcotest.(check (float 0.0)) "second solve identical" 0.0
            (Matrix.max_abs_diff (solve b) x);
          Alcotest.(check (float 1e-9)) "base still solves A" 0.0
            (Matrix.max_abs_diff (Sparse.solve base b) (Lu.solve_matrix a b)))
    [ (3, 2, 0, 1, 1.0); (5, 7, 6, 2, 0.25); (11, 12, 3, 9, 40.0) ]

let test_lu_update_singularising_rejected () =
  (* g = −1/(wᵀA⁻¹w) zeroes the Sherman–Morrison denominator: the
     updated matrix is exactly singular and the helper must refuse. *)
  let a, _ = random_dd_system 17 6 in
  let base = factor a in
  let i = 1 and j = 4 in
  let w = Array.make 6 0.0 in
  w.(i) <- 1.0;
  w.(j) <- -1.0;
  let z = Sparse.solve base w in
  let g = -1.0 /. (z.(i) -. z.(j)) in
  Alcotest.(check bool) "singularising g refused" true
    (update base i j g = None);
  List.iter
    (fun g ->
      Alcotest.(check bool) (Printf.sprintf "g = %g refused" g) true
        (update base i j g = None))
    [ nan; infinity; neg_infinity ]

let test_lu_update_length_mismatch () =
  let base = factor (Matrix.identity 2) in
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  raises "i = j" (fun () -> ignore (update base 1 1 1.0));
  raises "out-of-range unknown" (fun () ->
      ignore (update base 0 2 1.0));
  match update base 0 1 1.0 with
  | None -> Alcotest.fail "well-conditioned update refused"
  | Some correct -> raises "short solution" (fun () -> correct [| 1.0 |])

(* Sparse kernel ---------------------------------------------------------- *)

let test_sparse_triplets_sum () =
  let t = Sparse.Triplets.create () in
  Sparse.Triplets.add t 0 0 1.0;
  Sparse.Triplets.add t 1 1 2.0;
  Sparse.Triplets.add t 0 0 0.5;
  Sparse.Triplets.add t 1 0 (-1.0);
  Alcotest.(check int) "length counts duplicates" 4 (Sparse.Triplets.length t);
  let csc = Sparse.Csc.of_triplets ~n:2 t in
  Alcotest.(check int) "nnz after summing" 3 (Sparse.Csc.nnz csc);
  let m = Matrix.of_csc csc in
  Alcotest.(check (float 0.0)) "duplicates summed" 1.5 (Matrix.get m 0 0);
  Alcotest.(check (float 0.0)) "a11" 2.0 (Matrix.get m 1 1);
  Alcotest.(check (float 0.0)) "a10" (-1.0) (Matrix.get m 1 0);
  Alcotest.(check (float 0.0)) "absent entry" 0.0 (Matrix.get m 0 1);
  let nnz = Sparse.Csc.nnz csc in
  Alcotest.(check (array int)) "column pointers" [| 0; 2; 3 |]
    csc.Sparse.Csc.colptr;
  Alcotest.(check (array int)) "column by column, rows ascending"
    [| 0; 1; 1 |]
    (Array.sub csc.Sparse.Csc.rowind 0 nnz);
  Alcotest.(check (array (float 0.0))) "values in the same order"
    [| 1.5; -1.0; 2.0 |]
    (Array.sub csc.Sparse.Csc.values 0 nnz)

let test_sparse_mul_vec () =
  let a, x = random_dd_system 5 8 in
  let out = Array.make 8 nan in
  Sparse.Csc.mul_vec_into (Matrix.to_csc a) x out;
  Alcotest.(check (float 0.0)) "matches the dense row sums" 0.0
    (Matrix.max_abs_diff out (Matrix.mul_vec a x))

let test_sparse_zero_diagonal_pivot () =
  (* A vsource-style MNA block [[g,1],[1,0]]: the branch row has a zero
     diagonal, so threshold pivoting must swap. *)
  let a = Matrix.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  match Sparse.try_factor (Matrix.to_csc a) with
  | Error k -> Alcotest.failf "factor failed at column %d" k
  | Ok f ->
      Alcotest.(check int) "size" 2 (Sparse.size f);
      let x = Sparse.solve f [| 3.0; 1.0 |] in
      Alcotest.(check (float 1e-12)) "x0" 1.0 x.(0);
      Alcotest.(check (float 1e-12)) "x1" 1.0 x.(1)

let test_sparse_singular_rejected () =
  (* Exact rank deficiency: elimination is exact in floats here, so the
     second pivot is exactly zero. *)
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  (match Sparse.try_factor (Matrix.to_csc a) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected Error on a rank-deficient matrix");
  (* A structurally empty column can never produce a pivot. *)
  let z = Matrix.of_arrays [| [| 1.0; 0.0 |]; [| 0.0; 0.0 |] |] in
  (match Sparse.try_factor (Matrix.to_csc z) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected Error on an empty column");
  let nan_m = Matrix.of_arrays [| [| Float.nan; 0.0 |]; [| 0.0; 1.0 |] |] in
  match Sparse.try_factor (Matrix.to_csc nan_m) with
  | Error k -> Alcotest.(check int) "non-finite input flag" (-1) k
  | Ok _ -> Alcotest.fail "expected Error on a NaN matrix"

let test_sparse_symbolic_reuse () =
  let a, b = random_dd_system 99 12 in
  let csc = Matrix.to_csc a in
  let sym = Sparse.analyze csc in
  Alcotest.(check int) "symbolic size" 12 (Sparse.Symbolic.size sym);
  let order = Sparse.Symbolic.order sym in
  let seen = Array.make 12 false in
  Array.iter (fun c -> seen.(c) <- true) order;
  Alcotest.(check bool) "order is a permutation" true
    (Array.for_all Fun.id seen);
  match (Sparse.try_factor csc, Sparse.try_factor ~symbolic:sym csc) with
  | Ok f1, Ok f2 ->
      let x1 = Sparse.solve f1 b and x2 = Sparse.solve f2 b in
      Alcotest.(check (float 0.0)) "identical solves" 0.0
        (Matrix.max_abs_diff x1 x2);
      Alcotest.(check bool) "residual small" true
        (Matrix.max_abs_diff (Matrix.mul_vec a x1) b < 1e-8);
      Alcotest.(check bool) "factor nnz at least the input diagonal" true
        (Sparse.factor_nnz f1 >= 12)
  | _ -> Alcotest.fail "well-conditioned system failed to factor"

(* Extending an order appends the new unknowns, eliminated last; it
   stays a valid order for a system grown by those unknowns. *)
let test_sparse_symbolic_extend () =
  let a, _ = random_dd_system 7 6 in
  let sym = Sparse.analyze (Matrix.to_csc a) in
  let ext = Sparse.Symbolic.extend sym 2 in
  Alcotest.(check int) "extended size" 8 (Sparse.Symbolic.size ext);
  Alcotest.(check (array int)) "base order, then the new unknowns"
    (Array.append (Sparse.Symbolic.order sym) [| 6; 7 |])
    (Sparse.Symbolic.order ext);
  let big, b = random_dd_system 8 8 in
  let csc = Matrix.to_csc big in
  match (Sparse.try_factor csc, Sparse.try_factor ~symbolic:ext csc) with
  | Ok f1, Ok f2 ->
      Alcotest.(check (float 1e-12)) "same solution" 0.0
        (Matrix.max_abs_diff (Sparse.solve f1 b) (Sparse.solve f2 b))
  | _ -> Alcotest.fail "well-conditioned system failed to factor"

let test_sparse_solve_with_buffer () =
  let a, b = random_dd_system 7 9 in
  match Sparse.try_factor (Matrix.to_csc a) with
  | Error _ -> Alcotest.fail "factor failed"
  | Ok f ->
      let x = Sparse.solve f b in
      let y = Array.copy b in
      Sparse.solve_with ~work:(Array.make 9 0.0) f y;
      Alcotest.(check (float 0.0)) "solve_with = solve" 0.0
        (Matrix.max_abs_diff x y);
      let z = Array.copy b in
      Sparse.solve_in_place f z;
      Alcotest.(check (float 0.0)) "solve_in_place = solve" 0.0
        (Matrix.max_abs_diff x z)

(* [G −ωC; ωC G], the real image of G + jωC, for a random G and C.
   At high ω the diagonal blocks are small next to ±ωC, so most
   pivots must leave the diagonal; the diagonally dominant systems
   never ask that of the kernel. *)
let embedded_system seed n omega =
  let g, b = random_dd_system seed n and c, _ = random_dd_system (seed + 1) n in
  let a = Matrix.create (2 * n) (2 * n) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Matrix.set a i j (Matrix.get g i j);
      Matrix.set a (n + i) (n + j) (Matrix.get g i j);
      Matrix.set a i (n + j) (-.(omega *. Matrix.get c i j));
      Matrix.set a (n + i) j (omega *. Matrix.get c i j)
    done
  done;
  (a, Array.append b (Array.make n 0.0))

(* The routing stack factors with [Sparse] alone; [Lu] is the
   reference it is checked against. *)
let test_sparse_solves_match_lu () =
  (* Relative to the solution's largest entry: at high ω it is small.
     A diagonally dominant system's is at most max |b| = 10, so there
     the bound is never looser than 1e-9. *)
  let matches what (a, b) =
    let f = factor a in
    let x = Sparse.solve f b and r = Lu.solve_matrix a b in
    let scale = Array.fold_left (fun m v -> Float.max m (abs_float v)) 0.0 r in
    Alcotest.(check bool) (what ^ ": solve matches Lu") true
      (Matrix.max_abs_diff x r <= 1e-10 *. scale);
    f
  in
  ignore (matches "diagonally dominant" (random_dd_system 23 10));
  List.iter
    (fun omega ->
      let f =
        matches (Printf.sprintf "ω = %g" omega) (embedded_system 41 8 omega)
      in
      if omega >= 1e3 then begin
        let p, q = Sparse.permutations f in
        Alcotest.(check bool) "a pivot leaves the diagonal" true
          (Array.exists2 ( <> ) p q)
      end)
    [ 1e-3; 1.0; 1e3; 1e6 ]

(* On these clear-cut matrices both kernels must reach the same
   verdict. The column a refusal reports is each kernel's own: it
   depends on the elimination order. *)
let test_sparse_singular_verdicts () =
  List.iter
    (fun (label, rows) ->
      let a = Matrix.of_arrays rows in
      let verdict = function
        | Ok _ -> "ok"
        | Error -1 -> "non-finite"
        | Error _ -> "singular"
      in
      Alcotest.(check string) label
        (verdict (Lu.try_factor a))
        (verdict (Sparse.try_factor (Matrix.to_csc a))))
    [ ("rank deficient", [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |]);
      ("empty column", [| [| 1.0; 0.0 |]; [| 0.0; 0.0 |] |]);
      ("non-finite", [| [| Float.nan; 0.0 |]; [| 0.0; 1.0 |] |]);
      ("regular", [| [| 2.0; 1.0 |]; [| 1.0; 0.0 |] |]) ]

(* Refactorisation on a plan -------------------------------------------- *)

(* Bit for bit the same factorisation: the same row and column orders,
   the same U diagonal bits, and per step the same (row, value bits)
   sets in L and in U. *)
let same_factors f1 f2 =
  let a = Sparse.parts f1 and b = Sparse.parts f2 in
  let bits = Array.map Int64.bits_of_float in
  let sets =
    Array.map (fun column ->
        List.sort compare
          (Array.to_list
             (Array.map (fun (i, v) -> (i, Int64.bits_of_float v)) column)))
  in
  a.p = b.p && a.q = b.q
  && bits a.udiag = bits b.udiag
  && sets a.l = sets b.l && sets a.u = sets b.u

let counter name = Obs.Counter.value (Obs.Counter.make name)

(* [f ()] with how much each named counter rose while it ran. *)
let counting names f =
  let before = List.map counter names in
  let r = f () in
  (r, List.map2 (fun name b -> counter name - b) names before)

let refactor_counters =
  [ "sparse.refactors"; "sparse.refactor_fallbacks"; "sparse.singular" ]

(* A ring of [n] unknowns (a path unless [closed]): diagonal [diag],
   unit couplings to its neighbours (a cycle fills under any order, so
   its reaches reach past their roots), grown by [extra] unknowns whose
   entries [links] lists as (row, column, value). *)
let ring ?(closed = true) ?(extra = 0) ?(links = []) ~diag n =
  let m = Matrix.create (n + extra) (n + extra) in
  for i = 0 to n - 1 do
    Matrix.set m i i diag;
    if closed || i < n - 1 then begin
      let j = (i + 1) mod n in
      Matrix.set m i j 1.0;
      Matrix.set m j i 1.0
    end
  done;
  List.iter (fun (i, j, v) -> Matrix.add_to m i j v) links;
  Matrix.to_csc m

(* [b] as a refactor takes it on [a]'s pattern: its values in [a]'s
   slots (zero where [b] lacks the entry) and its entries outside
   them. *)
let split (a : Sparse.Csc.t) (b : Sparse.Csc.t) =
  let open Sparse.Csc in
  let na = cols a in
  let values = Array.make (max (nnz a) 1) 0.0 in
  let extra = ref [] in
  for j = 0 to cols b - 1 do
    for p = b.colptr.(j) to b.colptr.(j + 1) - 1 do
      let i = b.rowind.(p) and v = b.values.(p) in
      let slot = ref (-1) in
      if j < na then
        for s = a.colptr.(j) to a.colptr.(j + 1) - 1 do
          if a.rowind.(s) = i then slot := s
        done;
      if !slot >= 0 then values.(!slot) <- v else extra := (j, i, v) :: !extra
    done
  done;
  let e = Array.of_list (List.rev !extra) in
  ( values,
    { len = Array.length e;
      cols = Array.map (fun (j, _, _) -> j) e;
      rows = Array.map (fun (_, i, _) -> i) e;
      vals = Array.map (fun (_, _, v) -> v) e } )

(* [b] refactored on the plan of [a]'s factorisation (grown by [extra]
   unknowns) and factored by the full kernel on the same order: the
   verdicts and factors must agree bit for bit. Returns the counter
   changes of the refactor. *)
let refactor_against_full ?(extra = 0) ~what a b =
  let sym = Sparse.analyze a in
  let plan =
    match Sparse.try_factor_with_plan ~symbolic:sym a with
    | Ok (_, plan) -> plan
    | Error k -> Alcotest.failf "%s: base refused at column %d" what k
  in
  let full = Sparse.try_factor ~symbolic:(Sparse.Symbolic.extend sym extra) b in
  let values, entries = split a b in
  let refactored, counts =
    counting refactor_counters (fun () ->
        Sparse.refactor ~into:(Sparse.buffer ()) plan values
          ~n:(Sparse.Csc.cols b) entries)
  in
  (match (full, refactored) with
  | Ok f1, Ok f2 ->
      Alcotest.(check bool) (what ^ ": same factors") true (same_factors f1 f2)
  | Error k1, Error k2 -> Alcotest.(check int) (what ^ ": same column") k1 k2
  | _ -> Alcotest.failf "%s: verdicts differ" what);
  counts

(* A dense 3×3 on [a]'s order (c0, c1, c2) whose second step cancels
   exactly in a non-pivotal row: with pivots on the diagonal,
   x(c2) = 0.5 - (1/2)·1 at step 1. *)
let cancelling_3x3 a =
  let q = Sparse.Symbolic.order (Sparse.analyze a) in
  let m = Matrix.create 3 3 in
  List.iter
    (fun (i, j, v) -> Matrix.set m q.(i) q.(j) v)
    [ (0, 0, 2.0); (1, 0, 1.0); (2, 0, 1.0); (0, 1, 1.0); (1, 1, 4.0);
      (2, 1, 0.5); (0, 2, 1.0); (1, 2, 1.0); (2, 2, 4.0) ];
  Matrix.to_csc m

(* Same pattern, new values, one appended unknown: refactored, no
   decline. A plan keeps an entry that cancelled in its own
   factorisation, as G's floating tree does at the driven node, so a
   matrix without the cancellation refactors on it. *)
let test_sparse_refactor_matches () =
  let a, _ = random_dd_system 31 9 and b, _ = random_dd_system 32 9 in
  Alcotest.(check (list int)) "dense pattern refactors" [ 1; 0; 0 ]
    (refactor_against_full ~what:"dense" (Matrix.to_csc a)
       (Matrix.to_csc b));
  let b, _ = random_dd_system 6 3 in
  let b = Matrix.to_csc b in
  Alcotest.(check (list int)) "a cancelled base entry refactors" [ 1; 0; 0 ]
    (refactor_against_full ~what:"cancelled base" (cancelling_3x3 b) b);
  let chain = [ (0, 6, -1.0); (6, 0, -1.0); (6, 5, -1.0); (5, 6, -1.0) ] in
  Alcotest.(check (list int)) "one appended unknown refactors" [ 1; 0; 0 ]
    (refactor_against_full ~extra:1 ~what:"appended"
       (ring ~diag:4.0 6)
       (ring ~extra:1 ~links:((6, 6, 3.0) :: chain) ~diag:5.0 6))

(* Each case the plan cannot describe declines to the full kernel,
   counted once, with the full kernel's factors. *)
let test_sparse_refactor_declines () =
  let declines ~what ?extra a b =
    Alcotest.(check (list int)) what [ 0; 1; 0 ]
      (refactor_against_full ?extra ~what a b)
  in
  let a, _ = random_dd_system 5 3 in
  let a = Matrix.to_csc a in
  declines ~what:"exact zero" a (cancelling_3x3 a);
  (* A U entry of the pattern at zero: the full kernel never sees it, so
     its reach, and the order of later updates, may differ. *)
  let q = Sparse.Symbolic.order (Sparse.analyze a) in
  let zeroed = Matrix.of_csc a in
  Matrix.set zeroed q.(0) q.(1) 0.0;
  declines ~what:"zero input" a (Matrix.to_csc zeroed);
  (* Tiny diagonals on a path move every pivot off the diagonal. *)
  declines ~what:"pivot change" (ring ~closed:false ~diag:4.0 6)
    (ring ~closed:false ~diag:1e-3 6);
  let base = ring ~diag:4.0 6 in
  (* The appended row outweighs column 0's diagonal tenfold, so the
     full kernel pivots on it. *)
  declines ~what:"appended row wins the pivot" ~extra:1 base
    (ring ~extra:1 ~diag:4.0 6
       ~links:
         [ (6, 0, -100.0); (0, 6, -1.0); (6, 6, 3.0); (6, 5, -1.0);
           (5, 6, -1.0) ]);
  declines ~what:"foreign pattern" base
    (ring ~links:[ (0, 3, 1.0); (3, 0, 1.0) ] ~diag:4.0 6);
  declines ~what:"two appended unknowns" ~extra:2 base
    (ring ~extra:2 ~diag:4.0 6
       ~links:
         [ (0, 6, -1.0); (6, 0, -1.0); (6, 6, 3.0); (6, 7, -1.0);
           (7, 6, -1.0); (7, 7, 3.0); (7, 5, -1.0); (5, 7, -1.0) ])

(* A singular matrix on a plan: the refactor gives the full kernel's
   column and counts the singular verdict once. *)
let test_sparse_refactor_singular () =
  let m rows = Matrix.to_csc (Matrix.of_arrays rows) in
  Alcotest.(check (list int)) "refactor verdict, counted once" [ 1; 0; 1 ]
    (refactor_against_full ~what:"singular"
       (m [| [| 2.0; 1.0 |]; [| 1.0; 2.0 |] |])
       (m [| [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |]))

let suites =
  [ ( "numeric",
      [ Alcotest.test_case "matrix basics" `Quick test_matrix_basics;
        Alcotest.test_case "mul_vec" `Quick test_mul_vec;
        Alcotest.test_case "lu known system" `Quick test_lu_known;
        Alcotest.test_case "lu pivoting" `Quick test_lu_pivoting_needed;
        Alcotest.test_case "lu singular" `Quick test_lu_singular;
        Alcotest.test_case "lu rank-deficient detection" `Quick
          test_lu_try_factor_rank_deficient;
        Alcotest.test_case "lu update known" `Quick test_lu_update_known;
        Alcotest.test_case "lu update rejects singularising term" `Quick
          test_lu_update_singularising_rejected;
        Alcotest.test_case "lu update length mismatch" `Quick
          test_lu_update_length_mismatch;
        QCheck_alcotest.to_alcotest prop_lu_residual;
        QCheck_alcotest.to_alcotest prop_lu_solve_in_place_matches;
        Alcotest.test_case "sparse triplets sum duplicates" `Quick
          test_sparse_triplets_sum;
        Alcotest.test_case "sparse zero-diagonal pivoting" `Quick
          test_sparse_zero_diagonal_pivot;
        Alcotest.test_case "sparse singular rejection" `Quick
          test_sparse_singular_rejected;
        Alcotest.test_case "sparse symbolic extend" `Quick
          test_sparse_symbolic_extend;
        Alcotest.test_case "sparse symbolic reuse" `Quick
          test_sparse_symbolic_reuse;
        Alcotest.test_case "sparse solve buffers agree" `Quick
          test_sparse_solve_with_buffer;
        Alcotest.test_case "sparse mul_vec_into" `Quick test_sparse_mul_vec;
        Alcotest.test_case "sparse solves match lu" `Quick
          test_sparse_solves_match_lu;
        Alcotest.test_case "sparse verdicts match lu" `Quick
          test_sparse_singular_verdicts;
        Alcotest.test_case "sparse refactor matches full kernel" `Quick
          test_sparse_refactor_matches;
        Alcotest.test_case "sparse refactor declines" `Quick
          test_sparse_refactor_declines;
        Alcotest.test_case "sparse refactor singular verdict" `Quick
          test_sparse_refactor_singular ] ) ]
