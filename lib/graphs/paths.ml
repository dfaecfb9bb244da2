let adjacency g =
  let n = Wgraph.num_vertices g in
  let adj = Array.make n [] in
  List.iter
    (fun (e : Wgraph.edge) ->
      adj.(e.u) <- (e.v, e.w) :: adj.(e.u);
      adj.(e.v) <- (e.u, e.w) :: adj.(e.v))
    (Wgraph.edges g);
  adj

module Pq = Set.Make (struct
  type t = float * int

  let compare = compare
end)

let dijkstra g src =
  let n = Wgraph.num_vertices g in
  let adj = adjacency g in
  let dist = Array.make n infinity in
  let pred = Array.make n (-1) in
  dist.(src) <- 0.0;
  let pq = ref (Pq.singleton (0.0, src)) in
  while not (Pq.is_empty !pq) do
    let ((d, u) as min) = Pq.min_elt !pq in
    pq := Pq.remove min !pq;
    if d <= dist.(u) then
      List.iter
        (fun (v, w) ->
          let nd = d +. w in
          if nd < dist.(v) then begin
            dist.(v) <- nd;
            pred.(v) <- u;
            pq := Pq.add (nd, v) !pq
          end)
        adj.(u)
  done;
  (dist, pred)
