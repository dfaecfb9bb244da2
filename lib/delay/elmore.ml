open Circuit

let pin_capacitance tech r v =
  if v < Routing.num_terminals r then tech.Technology.sink_capacitance else 0.0

let edge_r tech r rooted v =
  let parent = rooted.Graphs.Rooted.parent.(v) in
  Technology.wire_resistance_of tech
    ~length:rooted.Graphs.Rooted.edge_weight.(v)
    ~width:(Routing.width r parent v)

let edge_c tech r rooted v =
  let parent = rooted.Graphs.Rooted.parent.(v) in
  Technology.wire_capacitance_of tech
    ~length:rooted.Graphs.Rooted.edge_weight.(v)
    ~width:(Routing.width r parent v)

let delays ~tech r =
  let rooted = Routing.rooted r in
  let n = Routing.num_vertices r in
  (* Subtree capacitances: each vertex carries its pin load plus the
     full capacitance of its parent edge, so the subtree sum at v is
     C_v plus that edge's own capacitance — the formula then charges
     only half the edge cap through its own resistance via the c/2
     term, and the structure below through the full sum. *)
  let own v =
    pin_capacitance tech r v
    +. if v = rooted.Graphs.Rooted.root then 0.0 else edge_c tech r rooted v
  in
  let subtree = Graphs.Rooted.fold_subtree_sums rooted own in
  let rd = tech.Technology.driver_resistance in
  let t = Array.make n 0.0 in
  (* subtree.(root) is C_n0, the whole net's capacitance. *)
  t.(rooted.Graphs.Rooted.root) <- rd *. subtree.(rooted.Graphs.Rooted.root);
  Array.iter
    (fun v ->
      if v <> rooted.Graphs.Rooted.root then begin
        let parent = rooted.Graphs.Rooted.parent.(v) in
        let r_e = edge_r tech r rooted v in
        let c_e = edge_c tech r rooted v in
        (* C_j in the paper's formula excludes e_j itself: subtract the
           edge capacitance folded into the subtree sum. *)
        let c_below = subtree.(v) -. c_e in
        t.(v) <- t.(parent) +. (r_e *. ((c_e /. 2.0) +. c_below))
      end)
    rooted.Graphs.Rooted.order;
  t

let sink_delays ~tech r =
  let t = delays ~tech r in
  List.map (fun v -> (v, t.(v))) (Routing.sinks r)

let max_delay ~tech r = Sinks.max_delay (sink_delays ~tech r)

let total_capacitance ~tech r =
  let wire =
    List.fold_left
      (fun acc (e : Graphs.Wgraph.edge) ->
        acc
        +. Technology.wire_capacitance_of tech ~length:e.w
             ~width:(Routing.width r e.u e.v))
      0.0
      (Graphs.Wgraph.edges (Routing.graph r))
  in
  wire
  +. (float_of_int (Routing.num_terminals r) *. tech.Technology.sink_capacitance)
