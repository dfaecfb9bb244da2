let distinct_coords select pins =
  Array.to_list (Array.map select pins) |> List.sort_uniq Float.compare

let points pins =
  let xs = distinct_coords (fun (p : Geom.Point.t) -> p.Geom.Point.x) pins in
  let ys = distinct_coords (fun (p : Geom.Point.t) -> p.Geom.Point.y) pins in
  let is_pin p = Array.exists (Geom.Point.equal p) pins in
  List.concat_map
    (fun x ->
      List.filter_map
        (fun y ->
          let p = Geom.Point.make x y in
          if is_pin p then None else Some p)
        ys)
    xs
