module Emap = Map.Make (Graphs.Wgraph.Key)

type t = {
  points : Geom.Point.t array;
  num_terminals : int;
  graph : Graphs.Wgraph.t;
  widths : float Emap.t;  (* only edges with width <> 1.0 are stored *)
}

let geometric_tolerance = 1e-6

let canon u v = if u < v then (u, v) else (v, u)

let check_weights points g =
  List.iter
    (fun (e : Graphs.Wgraph.edge) ->
      let d = Geom.Point.manhattan points.(e.u) points.(e.v) in
      if abs_float (d -. e.w) > geometric_tolerance then
        invalid_arg "Routing: edge weight disagrees with Manhattan distance")
    (Graphs.Wgraph.edges g)

let of_net net g =
  let points = Geom.Net.pins net in
  if Graphs.Wgraph.num_vertices g <> Array.length points then
    invalid_arg "Routing.of_net: vertex count mismatch";
  if not (Graphs.Wgraph.is_connected g) then
    invalid_arg "Routing.of_net: disconnected";
  check_weights points g;
  { points; num_terminals = Array.length points; graph = g;
    widths = Emap.empty }

let mst_of_net net =
  let points = Geom.Net.pins net in
  let n = Array.length points in
  let weight i j = Geom.Point.manhattan points.(i) points.(j) in
  let mst = Graphs.Mst.prim_complete ~n ~weight in
  { points; num_terminals = n; graph = mst; widths = Emap.empty }

let with_points ~source ~num_terminals points edges =
  if source <> 0 then
    invalid_arg "Routing.with_points: source must be vertex 0";
  let n = Array.length points in
  if num_terminals < 2 || num_terminals > n then
    invalid_arg "Routing.with_points: bad terminal count";
  let g =
    List.fold_left
      (fun g (u, v) ->
        Graphs.Wgraph.add_edge g u v
          (Geom.Point.manhattan points.(u) points.(v)))
      (Graphs.Wgraph.create n) edges
  in
  if not (Graphs.Wgraph.is_connected g) then
    invalid_arg "Routing.with_points: disconnected";
  { points = Array.copy points; num_terminals; graph = g;
    widths = Emap.empty }

let graph t = t.graph
let points t = Array.copy t.points
let point t i = t.points.(i)
let source _ = 0
let num_vertices t = Array.length t.points
let num_terminals t = t.num_terminals

let sinks t = List.init (t.num_terminals - 1) (fun i -> i + 1)

let is_tree t = Graphs.Wgraph.is_spanning_tree t.graph
let cost t = Graphs.Wgraph.total_weight t.graph

let edge_length t u v = Graphs.Wgraph.weight t.graph u v

let add_edge t u v =
  let w = Geom.Point.manhattan t.points.(u) t.points.(v) in
  { t with graph = Graphs.Wgraph.add_edge t.graph u v w }

let remove_edge t u v =
  let g = Graphs.Wgraph.remove_edge t.graph u v in
  if not (Graphs.Wgraph.is_connected g) then
    invalid_arg "Routing.remove_edge: would disconnect";
  { t with graph = g; widths = Emap.remove (canon u v) t.widths }

(* One pass over the edges marks each present pair in an n × n byte
   array; the pairs are then listed from the last, so the list comes
   out in increasing (u, v) order without a reversal. *)
let candidate_edges t =
  let n = num_vertices t in
  let present = Bytes.make (n * n) '\000' in
  Graphs.Wgraph.fold_edges
    (fun e () -> Bytes.set present ((e.u * n) + e.v) '\001')
    t.graph ();
  let acc = ref [] in
  for u = n - 2 downto 0 do
    for v = n - 1 downto u + 1 do
      if Bytes.get present ((u * n) + v) = '\000' then
        acc := (u, v) :: !acc
    done
  done;
  !acc

let width t u v =
  if not (Graphs.Wgraph.mem_edge t.graph u v) then raise Not_found;
  match Emap.find_opt (canon u v) t.widths with
  | Some w -> w
  | None -> 1.0

let set_width t u v w =
  if not (Graphs.Wgraph.mem_edge t.graph u v) then raise Not_found;
  if w <= 0.0 then invalid_arg "Routing.set_width: width must be positive";
  { t with widths = Emap.add (canon u v) w t.widths }

let widths t =
  List.map
    (fun (e : Graphs.Wgraph.edge) -> ((e.u, e.v), width t e.u e.v))
    (Graphs.Wgraph.edges t.graph)

let rooted t =
  if not (is_tree t) then invalid_arg "Routing.rooted: not a tree";
  Graphs.Rooted.of_tree t.graph ~root:0
