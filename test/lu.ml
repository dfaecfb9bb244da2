type t = {
  n : int;
  lu : float array;  (* packed LU factors, row-major *)
  perm : int array;  (* row permutation: row i of LU is row perm.(i) of A *)
  scratch : float array;  (* reused by solve_in_place *)
}

exception Singular of int

(* Every dense factorisation lands here. Only tests run this kernel,
   so a routing run reads 0 (or, when nothing links this module, has
   no such counter). *)
let factorizations = Obs.Counter.make "lu.factorizations"
let singular_factorizations = Obs.Counter.make "lu.singular"

let pivot_floor = 1e-300

(* A pivot this small relative to the largest entry of the input means
   the matrix is numerically rank-deficient: dividing by it would
   produce ~1e13x amplification, i.e. garbage dressed up as a solution.
   The absolute 1e-300 floor additionally catches exact zeros in
   all-tiny matrices. *)
let relative_pivot_threshold = 1e-13

let try_factor m =
  let n = Matrix.rows m in
  if Matrix.cols m <> n then invalid_arg "Lu.factor: matrix not square";
  Obs.Counter.incr factorizations;
  let a = Array.make (n * n) 0.0 in
  let amax = ref 0.0 and finite = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let v = Matrix.get m i j in
      a.((i * n) + j) <- v;
      let av = abs_float v in
      if not (Float.is_finite v) then finite := false;
      if av > !amax then amax := av
    done
  done;
  if not !finite then begin
    Obs.Counter.incr singular_factorizations;
    Error (-1)
  end
  else begin
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
        Obs.Counter.incr singular_factorizations;
        err
    | None -> Ok { n; lu = a; perm; scratch = Array.make n 0.0 }
  end

let factor m =
  match try_factor m with Ok t -> t | Error k -> raise (Singular k)

let solve_in_place t b =
  let n = t.n in
  if Array.length b <> n then invalid_arg "Lu.solve: length mismatch";
  let lu = t.lu in
  (* Apply permutation. *)
  let y = t.scratch in
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

let solve t b =
  let x = Array.copy b in
  solve_in_place t x;
  x

let solve_matrix m b = solve (factor m) b
