(* Tests for Manhattan-plane geometry and net generation. *)

open Geom

let point_gen =
  QCheck.Gen.(
    map2 (fun x y -> Point.make x y) (float_bound_inclusive 10_000.0)
      (float_bound_inclusive 10_000.0))

let arb_point = QCheck.make ~print:Point.to_string point_gen

let test_manhattan_known () =
  let p = Point.make 0.0 0.0 and q = Point.make 3.0 4.0 in
  Alcotest.(check (float 1e-12)) "3+4" 7.0 (Point.manhattan p q)

let prop_manhattan_symmetric =
  QCheck.Test.make ~name:"manhattan symmetric" ~count:200
    QCheck.(pair arb_point arb_point)
    (fun (p, q) -> Point.manhattan p q = Point.manhattan q p)

let prop_manhattan_triangle =
  QCheck.Test.make ~name:"manhattan triangle inequality" ~count:200
    QCheck.(triple arb_point arb_point arb_point)
    (fun (p, q, r) ->
      Point.manhattan p r <= Point.manhattan p q +. Point.manhattan q r +. 1e-6)

let prop_manhattan_dominates_euclidean =
  QCheck.Test.make ~name:"L1 >= L2" ~count:200
    QCheck.(pair arb_point arb_point)
    (fun (p, q) ->
      let dx = p.Point.x -. q.Point.x and dy = p.Point.y -. q.Point.y in
      Point.manhattan p q +. 1e-9 >= sqrt ((dx *. dx) +. (dy *. dy)))

let prop_manhattan_zero_iff_equal =
  QCheck.Test.make ~name:"L1 = 0 iff equal" ~count:200
    QCheck.(pair arb_point arb_point)
    (fun (p, q) -> Point.manhattan p q = 0.0 = Point.equal p q)

let test_rect_normalises () =
  let r = Rect.make 5.0 7.0 1.0 2.0 in
  Alcotest.(check (float 0.0)) "width" 4.0 (Rect.width r);
  Alcotest.(check (float 0.0)) "height" 5.0 (Rect.height r)

let test_rect_contains () =
  let r = Rect.square 10.0 in
  Alcotest.(check bool) "inside" true (Rect.contains r (Point.make 5.0 5.0));
  Alcotest.(check bool) "boundary" true (Rect.contains r (Point.make 0.0 10.0));
  Alcotest.(check bool) "outside" false
    (Rect.contains r (Point.make 10.1 5.0))

let test_bounding_box () =
  let pts =
    [| Point.make 1.0 5.0; Point.make 3.0 2.0; Point.make (-1.0) 4.0 |]
  in
  let b = Rect.bounding_box pts in
  Alcotest.(check (float 0.0)) "x0" (-1.0) b.Rect.x0;
  Alcotest.(check (float 0.0)) "x1" 3.0 b.Rect.x1;
  Alcotest.(check (float 0.0)) "y0" 2.0 b.Rect.y0;
  Alcotest.(check (float 0.0)) "y1" 5.0 b.Rect.y1

let test_bounding_box_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Rect.bounding_box: empty")
    (fun () -> ignore (Rect.bounding_box [||]))

let test_net_rejects_small () =
  Alcotest.check_raises "one pin"
    (Invalid_argument "Net.create: a net needs a source and at least one sink")
    (fun () -> ignore (Net.create [| Point.origin |]))

let test_net_rejects_coincident () =
  Alcotest.check_raises "dup pins" (Invalid_argument "Net.create: coincident pins")
    (fun () ->
      ignore (Net.create [| Point.origin; Point.make 1.0 1.0; Point.origin |]))

let test_net_accessors () =
  let net =
    Net.of_list [ Point.origin; Point.make 1.0 0.0; Point.make 0.0 2.0 ]
  in
  Alcotest.(check int) "size" 3 (Net.size net);
  Alcotest.(check int) "sinks" 2 (Net.num_sinks net);
  Alcotest.(check bool) "source" true (Point.equal (Net.source net) Point.origin);
  Alcotest.(check bool) "pin 2" true
    (Point.equal (Net.pin net 2) (Point.make 0.0 2.0))

let test_netgen_in_region () =
  let g = Rng.create 21 in
  let region = Rect.square 10_000.0 in
  let net = Netgen.uniform g ~region ~pins:30 in
  Alcotest.(check int) "pin count" 30 (Net.size net);
  Array.iter
    (fun p ->
      Alcotest.(check bool) "inside region" true (Rect.contains region p))
    (Net.pins net)

let test_netgen_batch_reproducible () =
  let region = Rect.square 10_000.0 in
  let b1 = Netgen.uniform_batch ~seed:5 ~region ~pins:10 ~trials:5 in
  let b2 = Netgen.uniform_batch ~seed:5 ~region ~pins:10 ~trials:5 in
  Array.iteri
    (fun i net ->
      Alcotest.(check bool)
        (Printf.sprintf "trial %d identical" i)
        true
        (Net.pins net = Net.pins b2.(i)))
    b1

let test_netgen_batch_prefix_stable () =
  (* Asking for more trials must not change the earlier nets. *)
  let region = Rect.square 10_000.0 in
  let b1 = Netgen.uniform_batch ~seed:5 ~region ~pins:10 ~trials:3 in
  let b2 = Netgen.uniform_batch ~seed:5 ~region ~pins:10 ~trials:6 in
  for i = 0 to 2 do
    Alcotest.(check bool) "prefix stable" true
      (Net.pins b1.(i) = Net.pins b2.(i))
  done

let test_netgen_clustered () =
  let g = Rng.create 8 in
  let region = Rect.square 10_000.0 in
  let net = Netgen.clustered g ~region ~clusters:3 ~pins:20 in
  Alcotest.(check int) "pin count" 20 (Net.size net);
  Array.iter
    (fun p ->
      Alcotest.(check bool) "inside region" true (Rect.contains region p))
    (Net.pins net)

let test_point_compare_total_order () =
  let pts =
    [ Point.make 1.0 2.0; Point.make 0.0 9.0; Point.make 1.0 0.0;
      Point.make 0.0 0.0 ]
  in
  let sorted = List.sort Point.compare pts in
  Alcotest.(check bool) "lexicographic" true
    (sorted
    = [ Point.make 0.0 0.0; Point.make 0.0 9.0; Point.make 1.0 0.0;
        Point.make 1.0 2.0 ])

let test_point_close () =
  Alcotest.(check bool) "close within eps" true
    (Point.close ~eps:0.1 (Point.make 0.0 0.0) (Point.make 0.05 (-0.05)));
  Alcotest.(check bool) "not close" false
    (Point.close ~eps:0.01 (Point.make 0.0 0.0) (Point.make 0.05 0.0))

let suites =
  [ ( "geom",
      [ Alcotest.test_case "manhattan 3-4-5" `Quick test_manhattan_known;
        Alcotest.test_case "point compare" `Quick test_point_compare_total_order;
        Alcotest.test_case "point close" `Quick test_point_close;
        QCheck_alcotest.to_alcotest prop_manhattan_symmetric;
        QCheck_alcotest.to_alcotest prop_manhattan_triangle;
        QCheck_alcotest.to_alcotest prop_manhattan_dominates_euclidean;
        QCheck_alcotest.to_alcotest prop_manhattan_zero_iff_equal;
        Alcotest.test_case "rect normalises" `Quick test_rect_normalises;
        Alcotest.test_case "rect contains" `Quick test_rect_contains;
        Alcotest.test_case "bounding box" `Quick test_bounding_box;
        Alcotest.test_case "bounding box empty" `Quick test_bounding_box_empty;
        Alcotest.test_case "net rejects 1 pin" `Quick test_net_rejects_small;
        Alcotest.test_case "net rejects coincident" `Quick
          test_net_rejects_coincident;
        Alcotest.test_case "net accessors" `Quick test_net_accessors;
        Alcotest.test_case "netgen stays in region" `Quick test_netgen_in_region;
        Alcotest.test_case "netgen batch reproducible" `Quick
          test_netgen_batch_reproducible;
        Alcotest.test_case "netgen batch prefix stable" `Quick
          test_netgen_batch_prefix_stable;
        Alcotest.test_case "netgen clustered" `Quick test_netgen_clustered ] ) ]
