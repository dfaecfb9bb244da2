open Circuit

(* Node capacitances under the pi model: pin load plus half of every
   incident wire's capacitance. *)
let node_capacitances ~tech r =
  let n = Routing.num_vertices r in
  let c = Array.make n 0.0 in
  for v = 0 to Routing.num_terminals r - 1 do
    c.(v) <- tech.Technology.sink_capacitance
  done;
  List.iter
    (fun (e : Graphs.Wgraph.edge) ->
      let cap =
        Technology.wire_capacitance_of tech ~length:e.w
          ~width:(Routing.width r e.u e.v)
      in
      c.(e.u) <- c.(e.u) +. (cap /. 2.0);
      c.(e.v) <- c.(e.v) +. (cap /. 2.0))
    (Graphs.Wgraph.edges (Routing.graph r));
  c

(* Conductance matrix with the ideal step source shorted: wire
   conductances between vertices plus the driver conductance on the
   source pin's diagonal. *)
let conductance_matrix ~tech r =
  let edges = Graphs.Wgraph.edges (Routing.graph r) in
  let g =
    Numeric.Sparse.Triplets.create ~capacity:((4 * List.length edges) + 1) ()
  in
  List.iter
    (fun (e : Graphs.Wgraph.edge) ->
      let cond =
        1.0
        /. Technology.wire_resistance_of tech ~length:e.w
             ~width:(Routing.width r e.u e.v)
      in
      Numeric.Sparse.Triplets.add g e.u e.u cond;
      Numeric.Sparse.Triplets.add g e.v e.v cond;
      Numeric.Sparse.Triplets.add g e.u e.v (-.cond);
      Numeric.Sparse.Triplets.add g e.v e.u (-.cond))
    edges;
  Numeric.Sparse.Triplets.add g (Routing.source r) (Routing.source r)
    (1.0 /. tech.Technology.driver_resistance);
  Numeric.Sparse.Csc.of_triplets ~n:(Routing.num_vertices r) g

let first_moments ~tech r =
  let g = conductance_matrix ~tech r in
  let c = node_capacitances ~tech r in
  Numeric.Sparse.solve (Numeric.Sparse.factor g) c

let sink_delays ~tech r =
  let m = first_moments ~tech r in
  List.map (fun v -> (v, m.(v))) (Routing.sinks r)

let max_delay ~tech r =
  List.fold_left (fun acc (_, d) -> Float.max acc d) 0.0 (sink_delays ~tech r)

let higher_moments ~tech r ~order =
  if order < 1 then invalid_arg "Moments.higher_moments: order < 1";
  let g = conductance_matrix ~tech r in
  let lu = Numeric.Sparse.factor g in
  let c = node_capacitances ~tech r in
  let n = Array.length c in
  let result = Array.make order [||] in
  (* m_1 = G^-1 c; m_{k+1} = G^-1 (C .* m_k). *)
  let current = ref (Numeric.Sparse.solve lu c) in
  result.(0) <- !current;
  for k = 1 to order - 1 do
    let rhs = Array.init n (fun i -> c.(i) *. !current.(i)) in
    current := Numeric.Sparse.solve lu rhs;
    result.(k) <- !current
  done;
  result

let two_pole_fit ~m1 ~m2 =
  Array.init (Array.length m1) (fun v ->
      (* Fit exp(-s*delta)/(1+s*tau): matching series coefficients
         gives tau = sqrt(2 m2 - m1^2), delta = m1 - tau. *)
      let disc = (2.0 *. m2.(v)) -. (m1.(v) *. m1.(v)) in
      if disc <= 0.0 then m1.(v) *. log 2.0
      else begin
        let tau = sqrt disc in
        if tau >= m1.(v) then m1.(v) *. log 2.0
        else (m1.(v) -. tau) +. (tau *. log 2.0)
      end)

let two_pole_delay ~tech r =
  let moments = higher_moments ~tech r ~order:2 in
  two_pole_fit ~m1:moments.(0) ~m2:moments.(1)
