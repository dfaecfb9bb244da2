let wire_area r =
  List.fold_left
    (fun acc ((u, v), w) -> acc +. (Routing.edge_length r u v *. w))
    0.0 (Routing.widths r)

let next_width widths current =
  List.find_opt (fun w -> w > current +. 1e-12) widths

(* Routing.widths names each wire in canonical order (u < v). *)
let resizes ~widths r =
  List.filter_map
    (fun ((u, v), w) ->
      Option.map
        (fun width ->
          { Delay.Model.u; v; length = Routing.edge_length r u v; width;
            was = Some w })
        (next_width widths w))
    (Routing.widths r)

let size_greedy ?(widths = [ 1.0; 2.0; 3.0 ]) ?(max_changes = max_int) ~model
    ~tech r =
  let rec increasing = function
    | a :: (b :: _ as rest) -> b > a && increasing rest
    | _ -> true
  in
  (match widths with
  | first :: _ when abs_float (first -. 1.0) < 1e-12 ->
      if not (increasing widths) then
        invalid_arg "Wire_sizing: widths must be strictly increasing"
  | _ -> invalid_arg "Wire_sizing: widths must start at 1");
  let trace, wires =
    Ldrg.search_delay ~max_moves:max_changes ~moves:(resizes ~widths) ~model
      ~tech r
  in
  ( trace.Ldrg.final,
    List.map (fun (w : Delay.Model.wire) -> ((w.u, w.v), w.width)) wires )
