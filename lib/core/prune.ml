type removal = {
  edge : int * int;
  objective_before : float;
  objective_after : float;
  cost_saved : float;
}

type trace = {
  initial : Routing.t;
  final : Routing.t;
  removals : removal list;
  evaluations : int;
}

(* The relative objective loss a removal may cost. *)
let tolerance = 1e-3

let run ~model ~tech initial =
  let evaluations = ref 0 in
  let objective r =
    incr evaluations;
    Oracle.Cache.max_delay ~model ~tech r
  in
  let baseline = objective initial in
  let ceiling = baseline *. (1.0 +. tolerance) in
  let rec loop current current_obj removals =
    (* Longest removable edge first: reclaim the most wire per try. *)
    let candidates =
      Graphs.Wgraph.edges (Routing.graph current)
      |> List.sort (fun (a : Graphs.Wgraph.edge) b -> Float.compare b.w a.w)
    in
    let removal =
      List.find_map
        (fun (e : Graphs.Wgraph.edge) ->
          match Routing.remove_edge current e.u e.v with
          | exception Invalid_argument _ -> None (* would disconnect *)
          | trial -> (
              match Oracle.candidate (fun () -> objective trial) with
              | Some obj when obj <= ceiling ->
                  Some
                    ( trial,
                      { edge = (e.u, e.v);
                        objective_before = current_obj;
                        objective_after = obj;
                        cost_saved = e.w } )
              | _ -> None))
        candidates
    in
    match removal with
    | Some (trial, r) -> loop trial r.objective_after (r :: removals)
    | None -> (current, removals)
  in
  let final, removals = loop initial baseline [] in
  { initial; final; removals = List.rev removals; evaluations = !evaluations }
