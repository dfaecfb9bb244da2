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

let update ?pad ?rcond_floor t terms =
  Lu.Update.make_with ?pad ?rcond_floor ~n:(size t)
    ~solve_with:(fun ~work b -> solve_with ~work t b)
    terms
