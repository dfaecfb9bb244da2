(* Wire sizing (WSORG, paper Section 5.2).

   Widths trade resistance for capacitance: a width-w wire has r/w
   resistance and c*w capacitance per unit length. Greedily widen the
   edges where that trade wins, on both the tree and the non-tree
   routing.

     dune exec examples/wire_sizing_demo.exe *)

let () =
  let tech = Circuit.Technology.table1 in
  let rng = Rng.create 13 in
  let net =
    Geom.Netgen.uniform rng
      ~region:(Geom.Rect.square tech.Circuit.Technology.layout_side)
      ~pins:10
  in
  let spice = Delay.Model.Spice Delay.Model.default_spice in
  let moment = Delay.Model.First_moment in
  let mst = Routing.mst_of_net net in

  let report name r =
    Printf.printf "  %-20s delay %.3f ns, wire area %.0f um (x%.2f)\n" name
      (Delay.Model.max_delay spice ~tech r *. 1e9)
      (Nontree.Wire_sizing.wire_area r)
      (Nontree.Wire_sizing.wire_area r /. Routing.cost mst)
  in

  Printf.printf "widths allowed: 1, 2, 3\n";
  report "MST" mst;

  let mst_sized, changes =
    Nontree.Wire_sizing.size_greedy ~model:moment ~tech mst
  in
  report "MST sized" mst_sized;
  List.iter
    (fun (((u, v), w)) -> Printf.printf "    widened %d-%d to %.0fx\n" u v w)
    changes;

  let ldrg = (Nontree.Ldrg.run ~model:moment ~tech mst).Nontree.Ldrg.final in
  report "LDRG" ldrg;

  let ldrg_sized, changes =
    Nontree.Wire_sizing.size_greedy ~model:moment ~tech ldrg
  in
  report "LDRG sized" ldrg_sized;
  List.iter
    (fun (((u, v), w)) -> Printf.printf "    widened %d-%d to %.0fx\n" u v w)
    changes;

  (* The Section 5.2 observation: doubling a width is exactly a merged
     pair of parallel wires. *)
  let e = List.hd (Graphs.Wgraph.edges (Routing.graph mst)) in
  let u = e.Graphs.Wgraph.u and v = e.Graphs.Wgraph.v in
  Printf.printf
    "merged-parallel check on edge %d-%d: doubled width gives %.3f ns\n" u v
    (Delay.Model.max_delay moment ~tech
       (Routing.set_width mst u v (2.0 *. Routing.width mst u v))
    *. 1e9)
