(* Tests for dense linear algebra. *)

open Numeric

let test_vec_ops () =
  let a = [| 1.0; 2.0; 3.0 |] and b = [| 4.0; 5.0; 6.0 |] in
  Alcotest.(check (array (float 0.0))) "add" [| 5.0; 7.0; 9.0 |] (Vec.add a b);
  Alcotest.(check (array (float 0.0))) "sub" [| -3.0; -3.0; -3.0 |] (Vec.sub a b);
  Alcotest.(check (float 0.0)) "dot" 32.0 (Vec.dot a b);
  Alcotest.(check (float 1e-12)) "norm2" (sqrt 14.0) (Vec.norm2 a);
  Alcotest.(check (float 0.0)) "norm_inf" 6.0 (Vec.norm_inf b);
  Alcotest.(check (float 0.0)) "max_abs_diff" 3.0 (Vec.max_abs_diff a b);
  let y = Array.copy b in
  Vec.axpy 2.0 a y;
  Alcotest.(check (array (float 0.0))) "axpy" [| 6.0; 9.0; 12.0 |] y;
  Alcotest.(check (float 0.0)) "lerp" 2.5 (Vec.lerp 2.0 3.0 0.5)

let test_matrix_basics () =
  let m = Matrix.create 2 3 in
  Matrix.set m 0 0 1.0;
  Matrix.add_to m 0 0 2.0;
  Matrix.update m 1 2 (fun x -> x +. 5.0);
  Alcotest.(check (float 0.0)) "set+add_to" 3.0 (Matrix.get m 0 0);
  Alcotest.(check (float 0.0)) "update" 5.0 (Matrix.get m 1 2);
  let t = Matrix.transpose m in
  Alcotest.(check int) "transpose rows" 3 (Matrix.rows t);
  Alcotest.(check (float 0.0)) "transpose entry" 5.0 (Matrix.get t 2 1)

let test_matrix_mul () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Matrix.of_arrays [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Matrix.mul a b in
  Alcotest.(check (float 0.0)) "c00" 19.0 (Matrix.get c 0 0);
  Alcotest.(check (float 0.0)) "c01" 22.0 (Matrix.get c 0 1);
  Alcotest.(check (float 0.0)) "c10" 43.0 (Matrix.get c 1 0);
  Alcotest.(check (float 0.0)) "c11" 50.0 (Matrix.get c 1 1)

let test_matrix_identity_mul () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let i = Matrix.identity 2 in
  Alcotest.(check (float 0.0)) "I*A = A" 0.0
    (Matrix.max_abs (Matrix.sub (Matrix.mul i a) a))

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
      let r = Vec.sub (Matrix.mul_vec a x) b in
      Vec.norm_inf r < 1e-8)

let prop_lu_solve_in_place_matches =
  QCheck.Test.make ~name:"solve_in_place = solve" ~count:40
    QCheck.(pair small_int (int_range 1 20))
    (fun (seed, n) ->
      let a, b = random_dd_system seed n in
      let f = Lu.factor a in
      let x1 = Lu.solve f b in
      let x2 = Array.copy b in
      Lu.solve_in_place f x2;
      Vec.max_abs_diff x1 x2 = 0.0)

let test_matrix_map_scale_frobenius () =
  let a = Matrix.of_arrays [| [| 3.0; 0.0 |]; [| 0.0; 4.0 |] |] in
  Alcotest.(check (float 1e-12)) "frobenius" 5.0 (Matrix.frobenius a);
  let doubled = Matrix.scale 2.0 a in
  Alcotest.(check (float 0.0)) "scale" 8.0 (Matrix.get doubled 1 1);
  let negated = Matrix.map (fun x -> -.x) a in
  Alcotest.(check (float 0.0)) "map" (-3.0) (Matrix.get negated 0 0);
  Alcotest.(check (float 0.0)) "max_abs" 4.0 (Matrix.max_abs a)

let test_matrix_data_is_live () =
  let a = Matrix.create 2 2 in
  (Matrix.data a).(3) <- 7.0;
  Alcotest.(check (float 0.0)) "row-major live view" 7.0 (Matrix.get a 1 1)

let test_vec_small_helpers () =
  Alcotest.(check (array (float 0.0))) "make" [| 2.0; 2.0 |] (Vec.make 2 2.0);
  Alcotest.(check (array (float 0.0))) "zeros" [| 0.0 |] (Vec.zeros 1);
  let a = [| 1.0; 2.0 |] in
  let b = Vec.copy a in
  b.(0) <- 9.0;
  Alcotest.(check (float 0.0)) "copy is fresh" 1.0 a.(0);
  Alcotest.(check (array (float 0.0))) "scale" [| 2.0; 4.0 |] (Vec.scale 2.0 a)

let test_zmatrix_solve () =
  (* (1+i) x = 2  ->  x = 1 - i *)
  let m = Numeric.Zmatrix.create 1 1 in
  Numeric.Zmatrix.set m 0 0 { Complex.re = 1.0; im = 1.0 };
  let x = Numeric.Zmatrix.solve m [| { Complex.re = 2.0; im = 0.0 } |] in
  Alcotest.(check (float 1e-12)) "re" 1.0 x.(0).Complex.re;
  Alcotest.(check (float 1e-12)) "im" (-1.0) x.(0).Complex.im

let test_zmatrix_mul_and_roundtrip () =
  let g = Rng.create 55 in
  let n = 6 in
  let m = Numeric.Zmatrix.create n n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let v =
        { Complex.re = Rng.float_in g (-1.0) 1.0;
          im = Rng.float_in g (-1.0) 1.0 }
      in
      Numeric.Zmatrix.set m i j
        (if i = j then Complex.add v { Complex.re = 4.0; im = 0.0 } else v)
    done
  done;
  let b =
    Array.init n (fun _ ->
        { Complex.re = Rng.float_in g (-1.0) 1.0;
          im = Rng.float_in g (-1.0) 1.0 })
  in
  let x = Numeric.Zmatrix.solve m b in
  let r = Numeric.Zmatrix.mul_vec m x in
  Array.iteri
    (fun i v ->
      Alcotest.(check bool) "residual small" true
        (Complex.norm (Complex.sub v b.(i)) < 1e-10))
    r

let test_zmatrix_singular () =
  let m = Numeric.Zmatrix.create 2 2 in
  (* Rank 1. *)
  Numeric.Zmatrix.set m 0 0 Complex.one;
  Numeric.Zmatrix.set m 0 1 Complex.one;
  Numeric.Zmatrix.set m 1 0 Complex.one;
  Numeric.Zmatrix.set m 1 1 Complex.one;
  match Numeric.Zmatrix.solve m [| Complex.one; Complex.zero |] with
  | exception Numeric.Zmatrix.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular"

(* One added conductance over a factored base (Sherman–Morrison) ------- *)

(* A + g·(e_i − e_j)(e_i − e_j)ᵀ, built explicitly. *)
let with_conductance_dense a i j g =
  let m = Matrix.copy a in
  Matrix.add_to m i i g;
  Matrix.add_to m j j g;
  Matrix.add_to m i j (-.g);
  Matrix.add_to m j i (-.g);
  m

let test_lu_update_known () =
  (* [[2,1],[1,3]] plus a unit conductance between 0 and 1 is
     [[3,0],[0,4]]; it maps [1,1] to [3,4]. *)
  let a = Matrix.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  (match Sparse.with_conductance (Sparse.factor (Sparse.Csc.of_matrix a)) 0 1 1.0 with
  | None -> Alcotest.fail "well-conditioned update refused"
  | Some solve ->
      let x = solve [| 3.0; 4.0 |] in
      Alcotest.(check (float 1e-12)) "x0" 1.0 x.(0);
      Alcotest.(check (float 1e-12)) "x1" 1.0 x.(1));
  (* Random systems against a fresh dense LU of the updated matrix. *)
  List.iter
    (fun (seed, n, i, j, g) ->
      let a, b = random_dd_system seed n in
      let base = Sparse.factor (Sparse.Csc.of_matrix a) in
      match Sparse.with_conductance base i j g with
      | None -> Alcotest.failf "seed %d: well-conditioned update refused" seed
      | Some solve ->
          let x = solve b in
          let fresh = Lu.solve_matrix (with_conductance_dense a i j g) b in
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "seed %d agrees with a fresh LU" seed)
            0.0 (Vec.max_abs_diff x fresh);
          (* The solver is reusable and leaves the base untouched. *)
          Alcotest.(check (float 0.0)) "second solve identical" 0.0
            (Vec.max_abs_diff (solve b) x);
          Alcotest.(check (float 1e-9)) "base still solves A" 0.0
            (Vec.max_abs_diff (Sparse.solve base b) (Lu.solve_matrix a b)))
    [ (3, 2, 0, 1, 1.0); (5, 7, 6, 2, 0.25); (11, 12, 3, 9, 40.0) ]

let test_lu_update_singularising_rejected () =
  (* g = −1/(wᵀA⁻¹w) zeroes the Sherman–Morrison denominator: the
     updated matrix is exactly singular and the helper must refuse. *)
  let a, _ = random_dd_system 17 6 in
  let base = Sparse.factor (Sparse.Csc.of_matrix a) in
  let i = 1 and j = 4 in
  let w = Array.make 6 0.0 in
  w.(i) <- 1.0;
  w.(j) <- -1.0;
  let z = Sparse.solve base w in
  let g = -1.0 /. (z.(i) -. z.(j)) in
  Alcotest.(check bool) "singularising g refused" true
    (Sparse.with_conductance base i j g = None);
  List.iter
    (fun g ->
      Alcotest.(check bool) (Printf.sprintf "g = %g refused" g) true
        (Sparse.with_conductance base i j g = None))
    [ nan; infinity; neg_infinity ]

let test_lu_update_length_mismatch () =
  let base = Sparse.factor (Sparse.Csc.of_matrix (Matrix.identity 2)) in
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  raises "i = j" (fun () -> ignore (Sparse.with_conductance base 1 1 1.0));
  raises "out-of-range unknown" (fun () ->
      ignore (Sparse.with_conductance base 0 2 1.0));
  match Sparse.with_conductance base 0 1 1.0 with
  | None -> Alcotest.fail "well-conditioned update refused"
  | Some solve -> raises "short rhs" (fun () -> ignore (solve [| 1.0 |]))

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
  let m = Sparse.Csc.to_matrix csc in
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
  Sparse.Csc.mul_vec_into (Sparse.Csc.of_matrix a) x out;
  Alcotest.(check (float 0.0)) "matches the dense row sums" 0.0
    (Vec.max_abs_diff out (Matrix.mul_vec a x))

let test_sparse_zero_diagonal_pivot () =
  (* A vsource-style MNA block [[g,1],[1,0]]: the branch row has a zero
     diagonal, so threshold pivoting must swap. *)
  let a = Matrix.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  match Sparse.try_factor (Sparse.Csc.of_matrix a) with
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
  (match Sparse.try_factor (Sparse.Csc.of_matrix a) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected Error on a rank-deficient matrix");
  (* A structurally empty column can never produce a pivot. *)
  let z = Matrix.of_arrays [| [| 1.0; 0.0 |]; [| 0.0; 0.0 |] |] in
  (match Sparse.try_factor (Sparse.Csc.of_matrix z) with
  | Error k -> (
      match Sparse.factor (Sparse.Csc.of_matrix z) with
      | exception Sparse.Singular k' ->
          Alcotest.(check int) "factor raises the same column" k k'
      | _ -> Alcotest.fail "factor accepted an empty column")
  | Ok _ -> Alcotest.fail "expected Error on an empty column");
  let nan_m = Matrix.of_arrays [| [| Float.nan; 0.0 |]; [| 0.0; 1.0 |] |] in
  match Sparse.try_factor (Sparse.Csc.of_matrix nan_m) with
  | Error k -> Alcotest.(check int) "non-finite input flag" (-1) k
  | Ok _ -> Alcotest.fail "expected Error on a NaN matrix"

let test_sparse_symbolic_reuse () =
  let a, b = random_dd_system 99 12 in
  let csc = Sparse.Csc.of_matrix a in
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
        (Vec.max_abs_diff x1 x2);
      let r = Vec.sub (Matrix.mul_vec a x1) b in
      Alcotest.(check bool) "residual small" true (Vec.norm_inf r < 1e-8);
      Alcotest.(check bool) "factor nnz at least the input diagonal" true
        (Sparse.factor_nnz f1 >= 12)
  | _ -> Alcotest.fail "well-conditioned system failed to factor"

(* Extending an order appends the new unknowns, eliminated last; it
   stays a valid order for a system grown by those unknowns. *)
let test_sparse_symbolic_extend () =
  let a, _ = random_dd_system 7 6 in
  let sym = Sparse.analyze (Sparse.Csc.of_matrix a) in
  let ext = Sparse.Symbolic.extend sym 2 in
  Alcotest.(check int) "extended size" 8 (Sparse.Symbolic.size ext);
  Alcotest.(check (array int)) "base order, then the new unknowns"
    (Array.append (Sparse.Symbolic.order sym) [| 6; 7 |])
    (Sparse.Symbolic.order ext);
  let big, b = random_dd_system 8 8 in
  let csc = Sparse.Csc.of_matrix big in
  match (Sparse.try_factor csc, Sparse.try_factor ~symbolic:ext csc) with
  | Ok f1, Ok f2 ->
      Alcotest.(check (float 1e-12)) "same solution" 0.0
        (Vec.max_abs_diff (Sparse.solve f1 b) (Sparse.solve f2 b))
  | _ -> Alcotest.fail "well-conditioned system failed to factor"

let test_sparse_solve_with_buffer () =
  let a, b = random_dd_system 7 9 in
  match Sparse.try_factor (Sparse.Csc.of_matrix a) with
  | Error _ -> Alcotest.fail "factor failed"
  | Ok f ->
      let x = Sparse.solve f b in
      let y = Array.copy b in
      Sparse.solve_with ~work:(Array.make 9 0.0) f y;
      Alcotest.(check (float 0.0)) "solve_with = solve" 0.0
        (Vec.max_abs_diff x y);
      let z = Array.copy b in
      Sparse.solve_in_place f z;
      Alcotest.(check (float 0.0)) "solve_in_place = solve" 0.0
        (Vec.max_abs_diff x z)

(* The routing stack factors with [Sparse] alone; [Lu] is the
   reference it is checked against. *)
let test_sparse_solves_match_lu () =
  let a, b = random_dd_system 23 10 in
  let x = Sparse.solve (Sparse.factor (Sparse.Csc.of_matrix a)) b in
  Alcotest.(check bool) "solve matches Lu" true
    (Vec.max_abs_diff x (Lu.solve_matrix a b) < 1e-9)

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
        (verdict (Sparse.try_factor (Sparse.Csc.of_matrix a))))
    [ ("rank deficient", [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |]);
      ("empty column", [| [| 1.0; 0.0 |]; [| 0.0; 0.0 |] |]);
      ("non-finite", [| [| Float.nan; 0.0 |]; [| 0.0; 1.0 |] |]);
      ("regular", [| [| 2.0; 1.0 |]; [| 1.0; 0.0 |] |]) ]

let suites =
  [ ( "numeric",
      [ Alcotest.test_case "vec ops" `Quick test_vec_ops;
        Alcotest.test_case "matrix basics" `Quick test_matrix_basics;
        Alcotest.test_case "matrix mul" `Quick test_matrix_mul;
        Alcotest.test_case "identity mul" `Quick test_matrix_identity_mul;
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
        Alcotest.test_case "matrix map/scale/frobenius" `Quick
          test_matrix_map_scale_frobenius;
        Alcotest.test_case "matrix data view" `Quick test_matrix_data_is_live;
        Alcotest.test_case "vec helpers" `Quick test_vec_small_helpers;
        Alcotest.test_case "zmatrix 1x1 complex" `Quick test_zmatrix_solve;
        Alcotest.test_case "zmatrix residual" `Quick
          test_zmatrix_mul_and_roundtrip;
        Alcotest.test_case "zmatrix singular" `Quick test_zmatrix_singular;
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
          test_sparse_singular_verdicts ] ) ]
