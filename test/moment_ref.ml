open Circuit

let system ~tech r =
  let n = Routing.num_vertices r in
  let g = Matrix.create n n and c = Array.make n 0.0 in
  for v = 0 to Routing.num_terminals r - 1 do
    c.(v) <- tech.Technology.sink_capacitance
  done;
  let source = Routing.source r in
  Matrix.add_to g source source (1.0 /. tech.Technology.driver_resistance);
  List.iter
    (fun (e : Graphs.Wgraph.edge) ->
      let width = Routing.width r e.u e.v in
      let cond =
        1.0 /. Technology.wire_resistance_of tech ~length:e.w ~width
      in
      Matrix.add_to g e.u e.u cond;
      Matrix.add_to g e.v e.v cond;
      Matrix.add_to g e.u e.v (-.cond);
      Matrix.add_to g e.v e.u (-.cond);
      let half =
        Technology.wire_capacitance_of tech ~length:e.w ~width /. 2.0
      in
      c.(e.u) <- c.(e.u) +. half;
      c.(e.v) <- c.(e.v) +. half)
    (Graphs.Wgraph.edges (Routing.graph r));
  (Lu.factor g, c)

let higher_moments ~tech r ~order =
  if order < 1 then invalid_arg "Moment_ref.higher_moments: order < 1";
  let lu, c = system ~tech r in
  let m = Array.make order [||] in
  m.(0) <- Lu.solve lu c;
  for k = 1 to order - 1 do
    m.(k) <- Lu.solve lu (Array.mapi (fun i ci -> ci *. m.(k - 1).(i)) c)
  done;
  m

let first_moments ~tech r = (higher_moments ~tech r ~order:1).(0)
