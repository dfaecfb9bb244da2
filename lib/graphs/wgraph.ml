type edge = { u : int; v : int; w : float }

module Key = struct
  type t = int * int

  (* Lexicographic, as polymorphic [compare] orders int pairs, but
     without a [caml_compare] call per map node. *)
  let compare ((a, b) : t) ((c, d) : t) =
    if a <> c then Int.compare a c else Int.compare b d
end

module Emap = Map.Make (Key)

type t = { n : int; edges : float Emap.t }

let create n =
  if n < 0 then invalid_arg "Wgraph.create: negative vertex count";
  { n; edges = Emap.empty }

let canon u v = if u < v then (u, v) else (v, u)

let check_vertex g x =
  if x < 0 || x >= g.n then invalid_arg "Wgraph: vertex out of range"

let add_edge g u v w =
  check_vertex g u;
  check_vertex g v;
  if u = v then invalid_arg "Wgraph.add_edge: self-loop";
  let key = canon u v in
  if Emap.mem key g.edges then invalid_arg "Wgraph.add_edge: duplicate edge";
  { g with edges = Emap.add key w g.edges }

let of_edges n triples =
  List.fold_left (fun g (u, v, w) -> add_edge g u v w) (create n) triples

let num_vertices g = g.n
let num_edges g = Emap.cardinal g.edges

let remove_edge g u v =
  let key = canon u v in
  if not (Emap.mem key g.edges) then raise Not_found;
  { g with edges = Emap.remove key g.edges }

let mem_edge g u v = Emap.mem (canon u v) g.edges

let weight g u v =
  match Emap.find_opt (canon u v) g.edges with
  | Some w -> w
  | None -> raise Not_found

let edges g =
  Emap.fold (fun (u, v) w acc -> { u; v; w } :: acc) g.edges []
  |> List.rev

let neighbors g x =
  check_vertex g x;
  Emap.fold
    (fun (u, v) w acc ->
      if u = x then (v, w) :: acc else if v = x then (u, w) :: acc else acc)
    g.edges []

let degree g x = List.length (neighbors g x)

let total_weight g = Emap.fold (fun _ w acc -> acc +. w) g.edges 0.0

let adjacency g =
  let adj = Array.make g.n [] in
  Emap.iter
    (fun (u, v) w ->
      adj.(u) <- (v, w) :: adj.(u);
      adj.(v) <- (u, w) :: adj.(v))
    g.edges;
  adj

let is_connected g =
  if g.n = 0 then true
  else begin
    let adj = adjacency g in
    let seen = Array.make g.n false in
    let rec dfs u =
      seen.(u) <- true;
      List.iter (fun (v, _) -> if not seen.(v) then dfs v) adj.(u)
    in
    dfs 0;
    Array.for_all Fun.id seen
  end

let is_spanning_tree g = num_edges g = g.n - 1 && is_connected g

let fold_edges f g init =
  Emap.fold (fun (u, v) w acc -> f { u; v; w } acc) g.edges init
