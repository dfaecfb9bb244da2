(* Sparse threshold pivoting refused a matrix that dense full partial
   pivoting then factored. A handful per run is a conditioning
   curiosity; a large count means the sparse path is mistuned and the
   run is quietly paying dense prices. *)
let dense_fallbacks = Obs.Counter.make "sparse.dense_fallbacks"

type t = D of Lu.t | S of Sparse.t

let try_factor ?symbolic csc =
  match Sparse.try_factor ?symbolic csc with
  | Ok f -> Ok (S f)
  | Error _ -> (
      (* Borderline pivots: the dense kernel is the authority on
         singularity, so its verdict (either way) is final. *)
      match Lu.try_factor (Sparse.Csc.to_matrix csc) with
      | Ok f ->
          Obs.Counter.incr dense_fallbacks;
          Ok (D f)
      | Error k -> Error k)

let factor ?symbolic csc =
  match try_factor ?symbolic csc with
  | Ok f -> f
  | Error k -> raise (Lu.Singular k)

let size = function D f -> Lu.size f | S f -> Sparse.size f

let solve_with ~work t b =
  match t with
  | D f -> Lu.solve_with ~work f b
  | S f -> Sparse.solve_with ~work f b

let solve_in_place = function
  | D f -> Lu.solve_in_place f
  | S f -> Sparse.solve_in_place f

let solve t b =
  let x = Array.copy b in
  solve_in_place t x;
  x

(* Sherman–Morrison for M = A + g·w·wᵀ, w = e_i − e_j: with z = A⁻¹w
   and s = 1/g + wᵀz, M⁻¹b = A⁻¹b − z·(wᵀA⁻¹b)/s. A non-finite or zero
   s, or one that cancels to below 1e-10 of the magnitudes summed into
   it, means M is numerically singular although s is representable. *)
let rank1_updates = Obs.Counter.make "lu.rank1_updates"

let with_conductance t i j g =
  let n = size t in
  if i < 0 || i >= n || j < 0 || j >= n || i = j then
    invalid_arg "Backend.with_conductance: bad unknown";
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
