(* Tests for union-find, weighted graphs, MSTs, shortest paths and
   rooted-tree utilities. *)

open Graphs

let test_uf_basics () =
  let uf = Union_find.create 5 in
  Alcotest.(check int) "initial sets" 5 (Union_find.count uf);
  Alcotest.(check bool) "union new" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "union again" false (Union_find.union uf 1 0);
  Alcotest.(check bool) "same" true (Union_find.same uf 0 1);
  Alcotest.(check bool) "not same" false (Union_find.same uf 0 2);
  Alcotest.(check int) "sets after union" 4 (Union_find.count uf)

let test_uf_transitive () =
  let uf = Union_find.create 6 in
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 1 2);
  ignore (Union_find.union uf 3 4);
  Alcotest.(check bool) "0~2" true (Union_find.same uf 0 2);
  Alcotest.(check bool) "3~4" true (Union_find.same uf 3 4);
  Alcotest.(check bool) "0!~3" false (Union_find.same uf 0 3);
  ignore (Union_find.union uf 2 3);
  Alcotest.(check bool) "0~4 after link" true (Union_find.same uf 0 4);
  Alcotest.(check int) "two sets left" 2 (Union_find.count uf)

let prop_uf_count_matches_components =
  QCheck.Test.make ~name:"union-find count = components" ~count:100
    QCheck.(pair (int_range 1 20) (small_list (pair (int_range 0 19) (int_range 0 19))))
    (fun (n, pairs) ->
      let pairs = List.filter (fun (a, b) -> a < n && b < n && a <> b) pairs in
      let uf = Union_find.create n in
      List.iter (fun (a, b) -> ignore (Union_find.union uf a b)) pairs;
      (* Count components by brute force on representative labels. *)
      let reps = List.sort_uniq compare (List.init n (Union_find.find uf)) in
      List.length reps = Union_find.count uf)

let test_wgraph_basics () =
  let g = Wgraph.of_edges 4 [ (0, 1, 1.0); (1, 2, 2.0); (2, 3, 3.0) ] in
  Alcotest.(check int) "vertices" 4 (Wgraph.num_vertices g);
  Alcotest.(check int) "edges" 3 (Wgraph.num_edges g);
  Alcotest.(check bool) "mem 1-2" true (Wgraph.mem_edge g 1 2);
  Alcotest.(check bool) "mem 2-1 symmetric" true (Wgraph.mem_edge g 2 1);
  Alcotest.(check bool) "no 0-3" false (Wgraph.mem_edge g 0 3);
  Alcotest.(check (float 0.0)) "weight" 2.0 (Wgraph.weight g 2 1);
  Alcotest.(check (float 0.0)) "total" 6.0 (Wgraph.total_weight g);
  Alcotest.(check int) "degree 1" 2 (Wgraph.degree g 1);
  Alcotest.(check bool) "connected" true (Wgraph.is_connected g);
  Alcotest.(check bool) "spanning tree" true (Wgraph.is_spanning_tree g)

let test_wgraph_rejects () =
  let g = Wgraph.of_edges 3 [ (0, 1, 1.0) ] in
  Alcotest.check_raises "self loop" (Invalid_argument "Wgraph.add_edge: self-loop")
    (fun () -> ignore (Wgraph.add_edge g 1 1 1.0));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Wgraph.add_edge: duplicate edge") (fun () ->
      ignore (Wgraph.add_edge g 1 0 1.0));
  Alcotest.check_raises "range" (Invalid_argument "Wgraph: vertex out of range")
    (fun () -> ignore (Wgraph.add_edge g 0 3 1.0))

let test_wgraph_remove () =
  let g = Wgraph.of_edges 3 [ (0, 1, 1.0); (1, 2, 1.0); (0, 2, 1.0) ] in
  let g' = Wgraph.remove_edge g 0 2 in
  Alcotest.(check int) "edge removed" 2 (Wgraph.num_edges g');
  Alcotest.(check int) "original intact" 3 (Wgraph.num_edges g);
  Alcotest.check_raises "absent" Not_found (fun () ->
      ignore (Wgraph.remove_edge g' 0 2))

let test_wgraph_disconnected () =
  let g = Wgraph.of_edges 4 [ (0, 1, 1.0); (2, 3, 1.0) ] in
  Alcotest.(check bool) "disconnected" false (Wgraph.is_connected g);
  Alcotest.(check bool) "not spanning tree" false (Wgraph.is_spanning_tree g)

(* A deterministic pseudo-random complete graph for MST cross checks. *)
let random_complete_weights seed n =
  let g = Rng.create seed in
  let w = Array.make_matrix n n 0.0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let x = 1.0 +. Rng.float g 100.0 in
      w.(i).(j) <- x;
      w.(j).(i) <- x
    done
  done;
  fun i j -> w.(i).(j)

let complete_graph n weight =
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      edges := (i, j, weight i j) :: !edges
    done
  done;
  Wgraph.of_edges n !edges

let test_mst_known () =
  (* Square with one diagonal: MST must avoid the heavy diagonal. *)
  let g =
    Wgraph.of_edges 4
      [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0); (3, 0, 5.0); (0, 2, 4.0) ]
  in
  let t = Mst_ref.kruskal g in
  Alcotest.(check bool) "spanning tree" true (Wgraph.is_spanning_tree t);
  Alcotest.(check (float 0.0)) "cost 3" 3.0 (Wgraph.total_weight t)

let prop_mst_algorithms_agree =
  QCheck.Test.make ~name:"prim = kruskal = prim_complete cost" ~count:50
    QCheck.(pair small_int (int_range 2 25))
    (fun (seed, n) ->
      let weight = random_complete_weights seed n in
      let g = complete_graph n weight in
      let c1 = Wgraph.total_weight (Mst_ref.kruskal g) in
      let c2 = Wgraph.total_weight (Mst_ref.prim g) in
      let c3 = Wgraph.total_weight (Mst.prim_complete ~n ~weight) in
      abs_float (c1 -. c2) < 1e-9 && abs_float (c1 -. c3) < 1e-9)

let prop_mst_leq_random_spanning_tree =
  QCheck.Test.make ~name:"MST cost <= random spanning tree cost" ~count:50
    QCheck.(pair small_int (int_range 2 20))
    (fun (seed, n) ->
      let weight = random_complete_weights seed n in
      let mst_cost =
        Wgraph.total_weight (Mst.prim_complete ~n ~weight)
      in
      (* Random spanning tree: random permutation, attach each vertex to a
         random earlier vertex. *)
      let g = Rng.create (seed + 1) in
      let perm = Array.init n Fun.id in
      Rng.shuffle g perm;
      let cost = ref 0.0 in
      for i = 1 to n - 1 do
        let j = Rng.int g i in
        cost := !cost +. weight perm.(i) perm.(j)
      done;
      mst_cost <= !cost +. 1e-9)

let test_mst_disconnected_rejected () =
  let g = Wgraph.of_edges 4 [ (0, 1, 1.0); (2, 3, 1.0) ] in
  Alcotest.check_raises "kruskal"
    (Invalid_argument "Mst_ref.kruskal: graph is disconnected") (fun () ->
      ignore (Mst_ref.kruskal g));
  Alcotest.check_raises "prim"
    (Invalid_argument "Mst_ref.prim: graph is disconnected") (fun () ->
      ignore (Mst_ref.prim g))

let test_dijkstra_known () =
  let g =
    Wgraph.of_edges 5
      [ (0, 1, 2.0); (1, 2, 2.0); (0, 3, 1.0); (3, 4, 1.0); (4, 2, 1.0) ]
  in
  let dist, pred = Paths.dijkstra g 0 in
  Alcotest.(check (float 1e-12)) "to 2 via bottom" 3.0 dist.(2);
  Alcotest.(check (float 1e-12)) "to 1" 2.0 dist.(1);
  (* The path 0-3-4-2, read back from 2. *)
  Alcotest.(check (list int)) "predecessors" [ 4; 3; 0; -1 ]
    [ pred.(2); pred.(4); pred.(3); pred.(0) ]

let test_dijkstra_unreachable () =
  let g = Wgraph.of_edges 3 [ (0, 1, 1.0) ] in
  let dist, pred = Paths.dijkstra g 0 in
  Alcotest.(check bool) "unreachable = inf" true (dist.(2) = infinity);
  Alcotest.(check int) "no predecessor" (-1) pred.(2)

let prop_dijkstra_triangle =
  QCheck.Test.make ~name:"dijkstra distances obey edge relaxation" ~count:40
    QCheck.(pair small_int (int_range 2 15))
    (fun (seed, n) ->
      let weight = random_complete_weights seed n in
      let g = complete_graph n weight in
      let dist, _ = Paths.dijkstra g 0 in
      (* No edge can shortcut a computed distance. *)
      List.for_all
        (fun (e : Wgraph.edge) ->
          dist.(e.v) <= dist.(e.u) +. e.w +. 1e-9
          && dist.(e.u) <= dist.(e.v) +. e.w +. 1e-9)
        (Wgraph.edges g))

let test_rooted_structure () =
  (* Path 0-1-2 plus branch 1-3. *)
  let t =
    Wgraph.of_edges 4 [ (0, 1, 1.0); (1, 2, 2.0); (1, 3, 3.0) ]
  in
  let r = Rooted.of_tree t ~root:0 in
  Alcotest.(check int) "parent of 2" 1 r.Rooted.parent.(2);
  Alcotest.(check int) "parent of 0" (-1) r.Rooted.parent.(0);
  Alcotest.(check (float 0.0)) "depth of 3" 4.0 r.Rooted.depth.(3);
  Alcotest.(check (float 0.0)) "edge weight of 2" 2.0 r.Rooted.edge_weight.(2)

let test_rooted_subtree_sums () =
  let t =
    Wgraph.of_edges 5
      [ (0, 1, 1.0); (1, 2, 1.0); (1, 3, 1.0); (3, 4, 1.0) ]
  in
  let r = Rooted.of_tree t ~root:0 in
  let s = Rooted.fold_subtree_sums r (fun _ -> 1.0) in
  Alcotest.(check (float 0.0)) "whole tree" 5.0 s.(0);
  Alcotest.(check (float 0.0)) "subtree of 1" 4.0 s.(1);
  Alcotest.(check (float 0.0)) "leaf" 1.0 s.(2);
  Alcotest.(check (float 0.0)) "subtree of 3" 2.0 s.(3)

let test_rooted_rejects_nontree () =
  let g = Wgraph.of_edges 3 [ (0, 1, 1.0); (1, 2, 1.0); (0, 2, 1.0) ] in
  Alcotest.check_raises "cycle" (Invalid_argument "Rooted.of_tree: not a spanning tree")
    (fun () -> ignore (Rooted.of_tree g ~root:0))

let prop_rooted_depth_is_dijkstra =
  QCheck.Test.make ~name:"rooted depth = tree shortest path" ~count:40
    QCheck.(pair small_int (int_range 2 20))
    (fun (seed, n) ->
      let weight = random_complete_weights seed n in
      let t = Mst.prim_complete ~n ~weight in
      let r = Rooted.of_tree t ~root:0 in
      let dist, _ = Paths.dijkstra t 0 in
      Array.for_all Fun.id
        (Array.init n (fun v -> abs_float (dist.(v) -. r.Rooted.depth.(v)) < 1e-9)))

let test_fold_edges () =
  let g = Wgraph.of_edges 4 [ (0, 1, 1.0); (1, 2, 2.0); (2, 3, 3.0) ] in
  let total = Wgraph.fold_edges (fun e acc -> acc +. e.Wgraph.w) g 0.0 in
  Alcotest.(check (float 0.0)) "fold sums weights" 6.0 total

let suites =
  [ ( "graphs",
      [ Alcotest.test_case "union-find basics" `Quick test_uf_basics;
        Alcotest.test_case "union-find transitive" `Quick test_uf_transitive;
        QCheck_alcotest.to_alcotest prop_uf_count_matches_components;
        Alcotest.test_case "wgraph basics" `Quick test_wgraph_basics;
        Alcotest.test_case "wgraph rejects bad edges" `Quick test_wgraph_rejects;
        Alcotest.test_case "wgraph remove" `Quick test_wgraph_remove;
        Alcotest.test_case "wgraph disconnected" `Quick test_wgraph_disconnected;
        Alcotest.test_case "mst known" `Quick test_mst_known;
        QCheck_alcotest.to_alcotest prop_mst_algorithms_agree;
        QCheck_alcotest.to_alcotest prop_mst_leq_random_spanning_tree;
        Alcotest.test_case "mst disconnected rejected" `Quick
          test_mst_disconnected_rejected;
        Alcotest.test_case "dijkstra known" `Quick test_dijkstra_known;
        Alcotest.test_case "dijkstra unreachable" `Quick test_dijkstra_unreachable;
        QCheck_alcotest.to_alcotest prop_dijkstra_triangle;
        Alcotest.test_case "rooted structure" `Quick test_rooted_structure;
        Alcotest.test_case "rooted subtree sums" `Quick test_rooted_subtree_sums;
        Alcotest.test_case "rooted rejects non-tree" `Quick
          test_rooted_rejects_nontree;
        QCheck_alcotest.to_alcotest prop_rooted_depth_is_dijkstra;
        Alcotest.test_case "fold_edges" `Quick test_fold_edges ] ) ]
