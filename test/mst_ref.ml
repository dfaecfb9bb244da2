open Graphs

let kruskal g =
  let n = Wgraph.num_vertices g in
  let sorted =
    List.sort
      (fun (a : Wgraph.edge) b -> Float.compare a.w b.w)
      (Wgraph.edges g)
  in
  let uf = Union_find.create n in
  let tree =
    List.fold_left
      (fun acc (e : Wgraph.edge) ->
        if Union_find.union uf e.u e.v then Wgraph.add_edge acc e.u e.v e.w
        else acc)
      (Wgraph.create n) sorted
  in
  if Union_find.count uf <> 1 then
    invalid_arg "Mst_ref.kruskal: graph is disconnected";
  tree

let prim g =
  let n = Wgraph.num_vertices g in
  if n = 0 then invalid_arg "Mst_ref.prim: empty graph";
  let adj = Array.make n [] in
  List.iter
    (fun (e : Wgraph.edge) ->
      adj.(e.u) <- (e.v, e.w) :: adj.(e.u);
      adj.(e.v) <- (e.u, e.w) :: adj.(e.v))
    (Wgraph.edges g);
  let in_tree = Array.make n false in
  let best = Array.make n infinity in
  let parent = Array.make n (-1) in
  in_tree.(0) <- true;
  List.iter
    (fun (v, w) ->
      if w < best.(v) then begin
        best.(v) <- w;
        parent.(v) <- 0
      end)
    adj.(0);
  let tree = ref (Wgraph.create n) in
  for _ = 1 to n - 1 do
    let u = ref (-1) in
    for v = 0 to n - 1 do
      if (not in_tree.(v)) && best.(v) < infinity
         && (!u = -1 || best.(v) < best.(!u))
      then u := v
    done;
    if !u = -1 then invalid_arg "Mst_ref.prim: graph is disconnected";
    let u = !u in
    in_tree.(u) <- true;
    tree := Wgraph.add_edge !tree parent.(u) u best.(u);
    List.iter
      (fun (v, w) ->
        if (not in_tree.(v)) && w < best.(v) then begin
          best.(v) <- w;
          parent.(v) <- u
        end)
      adj.(u)
  done;
  !tree
