type t = { r : int; c : int; a : float array }

let create r c =
  if r < 0 || c < 0 then invalid_arg "Matrix.create: negative dimension";
  { r; c; a = Array.make (r * c) 0.0 }

let identity n =
  let m = create n n in
  for i = 0 to n - 1 do
    m.a.((i * n) + i) <- 1.0
  done;
  m

let rows m = m.r
let cols m = m.c

let index m i j =
  if i < 0 || i >= m.r || j < 0 || j >= m.c then
    invalid_arg "Matrix: index out of range";
  (i * m.c) + j

let get m i j = m.a.(index m i j)
let set m i j x = m.a.(index m i j) <- x
let update m i j f = m.a.(index m i j) <- f m.a.(index m i j)
let add_to m i j x = m.a.(index m i j) <- m.a.(index m i j) +. x

let copy m = { m with a = Array.copy m.a }

let transpose m =
  let t = create m.c m.r in
  for i = 0 to m.r - 1 do
    for j = 0 to m.c - 1 do
      t.a.((j * t.c) + i) <- m.a.((i * m.c) + j)
    done
  done;
  t

let mul x y =
  if x.c <> y.r then invalid_arg "Matrix.mul: dimension mismatch";
  let z = create x.r y.c in
  for i = 0 to x.r - 1 do
    for k = 0 to x.c - 1 do
      let xik = x.a.((i * x.c) + k) in
      if xik <> 0.0 then
        for j = 0 to y.c - 1 do
          z.a.((i * z.c) + j) <- z.a.((i * z.c) + j) +. (xik *. y.a.((k * y.c) + j))
        done
    done
  done;
  z

let mul_vec m v =
  if m.c <> Array.length v then invalid_arg "Matrix.mul_vec: dimension mismatch";
  Array.init m.r (fun i ->
      let s = ref 0.0 in
      for j = 0 to m.c - 1 do
        s := !s +. (m.a.((i * m.c) + j) *. v.(j))
      done;
      !s)

let add x y =
  if x.r <> y.r || x.c <> y.c then invalid_arg "Matrix.add: dimension mismatch";
  { x with a = Array.mapi (fun i v -> v +. y.a.(i)) x.a }

let sub x y =
  if x.r <> y.r || x.c <> y.c then invalid_arg "Matrix.sub: dimension mismatch";
  { x with a = Array.mapi (fun i v -> v -. y.a.(i)) x.a }

let scale s m = { m with a = Array.map (fun v -> s *. v) m.a }

let map f m = { m with a = Array.map f m.a }

let data m = m.a

let of_arrays rows_arr =
  let r = Array.length rows_arr in
  if r = 0 then create 0 0
  else begin
    let c = Array.length rows_arr.(0) in
    Array.iter
      (fun row ->
        if Array.length row <> c then
          invalid_arg "Matrix.of_arrays: ragged rows")
      rows_arr;
    let m = create r c in
    for i = 0 to r - 1 do
      Array.blit rows_arr.(i) 0 m.a (i * c) c
    done;
    m
  end

let to_arrays m =
  Array.init m.r (fun i -> Array.sub m.a (i * m.c) m.c)

let max_abs m = Array.fold_left (fun acc x -> Float.max acc (abs_float x)) 0.0 m.a

let frobenius m =
  sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 m.a)

module Csc = Numeric.Sparse.Csc

let of_csc (t : Csc.t) =
  let m = create t.rows t.cols in
  for j = 0 to t.cols - 1 do
    for p = t.colptr.(j) to t.colptr.(j + 1) - 1 do
      set m t.rowind.(p) j t.values.(p)
    done
  done;
  m

let to_csc m =
  if m.r <> m.c then invalid_arg "Matrix.to_csc: matrix not square";
  let t = Numeric.Sparse.Triplets.create () in
  for j = 0 to m.c - 1 do
    for i = 0 to m.r - 1 do
      let v = get m i j in
      if v <> 0.0 then Numeric.Sparse.Triplets.add t i j v
    done
  done;
  Csc.of_triplets ~n:m.r t

let max_abs_diff x y =
  Array.fold_left Float.max 0.0 (Array.map2 (fun a b -> abs_float (a -. b)) x y)
