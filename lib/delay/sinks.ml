let max_delay ds = List.fold_left (fun acc (_, d) -> Float.max acc d) 0.0 ds
