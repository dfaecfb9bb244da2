let mst_cost_of_points points =
  let n = Array.length points in
  let weight i j = Geom.Point.manhattan points.(i) points.(j) in
  Graphs.Wgraph.total_weight (Graphs.Mst.prim_complete ~n ~weight)

(* Remove useless Steiner points from a tree over [points]: degree-1
   Steiner leaves are dropped, degree-2 Steiner through-points are
   spliced (their two edges replaced by one direct edge, never longer
   in the Manhattan metric). Returns the surviving point array and
   edge list, with terminals kept at indices 0..num_terminals-1. *)
let cleanup points num_terminals tree =
  let n = Array.length points in
  let adjacency edges =
    let adj = Array.make n [] in
    List.iter
      (fun (u, v) ->
        adj.(u) <- v :: adj.(u);
        adj.(v) <- u :: adj.(v))
      edges;
    adj
  in
  let rec simplify edges =
    let adj = adjacency edges in
    let victim = ref None in
    for v = num_terminals to n - 1 do
      if !victim = None then
        match adj.(v) with
        | [] -> () (* already detached; compaction below discards it *)
        | [ _ ] -> victim := Some (`Drop v)
        | [ a; b ] -> victim := Some (`Splice (v, a, b))
        | _ -> ()
    done;
    match !victim with
    | None -> edges
    | Some (`Drop v) ->
        simplify (List.filter (fun (a, b) -> a <> v && b <> v) edges)
    | Some (`Splice (v, a, b)) ->
        let edges = List.filter (fun (x, y) -> x <> v && y <> v) edges in
        simplify ((a, b) :: edges)
  in
  let edges = simplify tree in
  (* Compact: drop Steiner points that no longer appear. *)
  let used = Array.make n false in
  for v = 0 to num_terminals - 1 do
    used.(v) <- true
  done;
  List.iter
    (fun (u, v) ->
      used.(u) <- true;
      used.(v) <- true)
    edges;
  let remap = Array.make n (-1) in
  let kept = ref [] in
  let next = ref 0 in
  for v = 0 to n - 1 do
    if used.(v) then begin
      remap.(v) <- !next;
      incr next;
      kept := points.(v) :: !kept
    end
  done;
  let points' = Array.of_list (List.rev !kept) in
  let edges' = List.map (fun (u, v) -> (remap.(u), remap.(v))) edges in
  (points', edges')

(* Gains below this (µm) are float noise at chip scale, not wirelength
   savings; accepting them can spin the improvement loop forever. *)
let min_gain = 1e-6

let construct net =
  let terminals = Geom.Net.pins net in
  let num_terminals = Array.length terminals in
  (* A rectilinear SMT needs at most n-2 Steiner points, so cap the
     loop there. *)
  let max_points = Int.max 0 (num_terminals - 2) in
  let chosen = ref [] in
  let num_chosen = ref 0 in
  let current_points () = Array.append terminals (Array.of_list (List.rev !chosen)) in
  let improving = ref true in
  while !improving && !num_chosen < max_points do
    improving := false;
    let points = current_points () in
    let base_cost = mst_cost_of_points points in
    (* Candidates come from the Hanan grid of the current point set
       (terminals plus already-chosen Steiner points), per the
       iterated construction. *)
    let candidates = Hanan.points points in
    let best = ref None in
    List.iter
      (fun cand ->
        let cost = mst_cost_of_points (Array.append points [| cand |]) in
        let gain = base_cost -. cost in
        match !best with
        | Some (_, g) when g >= gain -> ()
        | _ -> if gain > min_gain then best := Some (cand, gain))
      candidates;
    match !best with
    | Some (cand, _) ->
        chosen := cand :: !chosen;
        incr num_chosen;
        improving := true
    | None -> ()
  done;
  let points = current_points () in
  let n = Array.length points in
  let weight i j = Geom.Point.manhattan points.(i) points.(j) in
  let mst = Graphs.Mst.prim_complete ~n ~weight in
  let edges =
    List.map (fun (e : Graphs.Wgraph.edge) -> (e.u, e.v)) (Graphs.Wgraph.edges mst)
  in
  let points', edges' = cleanup points num_terminals edges in
  Routing.with_points ~source:0 ~num_terminals points' edges'
