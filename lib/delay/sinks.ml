let max_delay ds = List.fold_left (fun acc (_, d) -> Float.max acc d) 0.0 ds

let largest (ds : float array) =
  let m = ref 0.0 in
  for i = 0 to Array.length ds - 1 do
    m := Float.max !m ds.(i)
  done;
  !m
