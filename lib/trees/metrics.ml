let radius r =
  let dist, _ = Graphs.Paths.dijkstra (Routing.graph r) (Routing.source r) in
  List.fold_left (fun acc v -> Float.max acc dist.(v)) 0.0 (Routing.sinks r)
