(* Tests for the table/figure harness and the net file format. *)

open Geom

(* A cheap config: first-moment evaluation, tiny trial counts. *)
let cheap_config =
  { Nontree.Experiment.default with
    trials = 4;
    sizes = [ 5; 8 ];
    eval_model = Delay.Model.First_moment;
    search_model = Delay.Model.First_moment }

let row d c pct =
  { Nontree.Stats.n = 4;
    all_delay = d;
    all_cost = c;
    pct_winners = pct;
    win_delay = Some d;
    win_cost = Some c }

(* Table rendering ------------------------------------------------------ *)

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec scan i = i + m <= n && (String.sub hay i m = needle || scan (i + 1)) in
  scan 0

let test_render_groups_blocks () =
  let rows =
    [ { Harness.Table.label = "Iteration One"; size = 5; row = Some (row 0.9 1.2 50.0) };
      { Harness.Table.label = "Iteration One"; size = 10; row = Some (row 0.8 1.3 90.0) };
      { Harness.Table.label = "Iteration Two"; size = 5; row = None };
      { Harness.Table.label = "Iteration Two"; size = 10; row = Some (row 0.95 1.1 10.0) } ]
  in
  let text = Harness.Table.render ~title:"T" ~baseline:"MST" rows in
  Alcotest.(check bool) "has title" true (contains text "T\n");
  Alcotest.(check bool) "has NA row" true (contains text "NA");
  (* Iteration One must appear before Iteration Two. *)
  let idx s =
    let rec find i =
      if i + String.length s > String.length text then max_int
      else if String.sub text i (String.length s) = s then i
      else find (i + 1)
    in
    find 0
  in
  Alcotest.(check bool) "block order" true
    (idx "Iteration One" < idx "Iteration Two")

(* Harness runs with the cheap oracle ----------------------------------- *)

let find_rows label rows =
  List.filter (fun r -> r.Harness.Table.label = label) rows

let test_table2_cheap () =
  let rows = Harness.Runs.table2 cheap_config in
  (* 2 iterations x 2 sizes. *)
  Alcotest.(check int) "row count" 4 (List.length rows);
  let iter1 = find_rows "Iteration One" rows in
  Alcotest.(check int) "iter1 rows" 2 (List.length iter1);
  List.iter
    (fun r ->
      match r.Harness.Table.row with
      | Some s ->
          Alcotest.(check bool) "iter1 delay <= 1" true
            (s.Nontree.Stats.all_delay <= 1.0 +. 1e-9);
          Alcotest.(check bool) "iter1 cost >= 1" true
            (s.Nontree.Stats.all_cost >= 1.0 -. 1e-9)
      | None -> ())
    iter1

let test_table5_cheap () =
  let h2, h3 = Harness.Runs.table5 cheap_config in
  Alcotest.(check int) "h2 sizes" 2 (List.length h2);
  Alcotest.(check int) "h3 sizes" 2 (List.length h3);
  List.iter
    (fun r ->
      match r.Harness.Table.row with
      | Some s ->
          (* H2/H3 add an edge unconditionally: cost strictly grows on
             nets where an edge was added. *)
          Alcotest.(check bool) "cost >= 1" true
            (s.Nontree.Stats.all_cost >= 1.0 -. 1e-9)
      | None -> Alcotest.fail "h2/h3 row missing")
    (h2 @ h3)

let test_table6_cheap () =
  let rows = Harness.Runs.table6 cheap_config in
  List.iter
    (fun r ->
      match r.Harness.Table.row with
      | Some s ->
          Alcotest.(check bool) "ERT improves delay on average" true
            (s.Nontree.Stats.all_delay < 1.05)
      | None -> Alcotest.fail "missing row")
    rows

let test_figure_machinery () =
  let f = Harness.Runs.figure2 cheap_config in
  Alcotest.(check int) "10 pins" 10 f.Harness.Runs.net_size;
  Alcotest.(check bool) "delay improved" true
    (f.Harness.Runs.final_delay < f.Harness.Runs.base_delay);
  Alcotest.(check bool) "cost grew" true
    (f.Harness.Runs.final_cost > f.Harness.Runs.base_cost);
  Alcotest.(check int) "stages = added edges" (List.length f.Harness.Runs.added)
    (List.length f.Harness.Runs.stages);
  let text = Harness.Runs.render_figure f in
  Alcotest.(check bool) "describes improvement" true
    (contains text "improvement");
  (* SVG output works. *)
  let dir = Filename.temp_file "figs" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let paths = Harness.Runs.save_figure_svgs ~dir f in
  Alcotest.(check int) "two svgs" 2 (List.length paths);
  List.iter
    (fun p ->
      Alcotest.(check bool) "file exists" true (Sys.file_exists p);
      Sys.remove p)
    paths;
  Unix.rmdir dir

let find selector =
  List.find (fun a -> a.Harness.Runs.selector = selector) Harness.Runs.artefacts

let test_extensions_render () =
  let tiny = { cheap_config with trials = 2 } in
  List.iter
    (fun name ->
      let text = (find (Harness.Runs.Ext name)).render tiny ~svg_dir:"unused" in
      Alcotest.(check bool) (name ^ " non-empty") true (String.length text > 50))
    [ "csorg"; "wsorg"; "rlc"; "trees"; "budget"; "prune" ]

(* Both drivers print from the one list: every artefact of the paper
   must be in it exactly once, and every section [--only] names must
   hold at least one of them. *)
let test_artefact_list () =
  let selectors =
    List.map (fun a -> a.Harness.Runs.selector) Harness.Runs.artefacts
  in
  let expected =
    List.init 7 (fun i -> Harness.Runs.Table (i + 1))
    @ List.map (fun n -> Harness.Runs.Figure n) [ 1; 2; 3; 5 ]
    @ List.map
        (fun e -> Harness.Runs.Ext e)
        [ "csorg"; "wsorg"; "oracle"; "rlc"; "trees"; "budget"; "prune";
          "sensitivity" ]
  in
  Alcotest.(check bool) "every artefact, exactly once" true
    (List.sort compare selectors = List.sort compare expected);
  Alcotest.(check (list string)) "sections"
    [ "1"; "2"; "3"; "4"; "5"; "6"; "7"; "figures"; "ext" ]
    Harness.Runs.sections;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " has an artefact") true
        (List.exists
           (fun a -> a.Harness.Runs.section = name)
           Harness.Runs.artefacts))
    Harness.Runs.sections

(* Net files ------------------------------------------------------------- *)

let test_netfile_roundtrip () =
  let net =
    Net.of_list
      [ Point.make 0.5 1.25; Point.make 100.0 0.0; Point.make 3.75 9999.5 ]
  in
  match Netfile.of_string (Netfile.to_string net) with
  | Error e -> Alcotest.fail e
  | Ok net' ->
      Alcotest.(check bool) "pins identical" true (Net.pins net = Net.pins net')

let test_netfile_comments_and_blanks () =
  let text = "# header\n\n  0 0\n# middle\n10 20\n\n" in
  match Netfile.of_string text with
  | Error e -> Alcotest.fail e
  | Ok net -> Alcotest.(check int) "two pins" 2 (Net.size net)

let test_netfile_errors () =
  (match Netfile.of_string "0 0\n" with
  | Error e -> Alcotest.(check bool) "too few" true (contains e "two pins")
  | Ok _ -> Alcotest.fail "expected error");
  match Netfile.of_string "0 0\nnot numbers\n" with
  | Error e -> Alcotest.(check bool) "names line" true (contains e "line 2")
  | Ok _ -> Alcotest.fail "expected error"

let test_netfile_rejects_non_finite () =
  List.iter
    (fun text ->
      match Netfile.of_string text with
      | Error e ->
          Alcotest.(check bool) ("names line: " ^ e) true
            (contains e "line 3" && contains e "non-finite")
      | Ok _ -> Alcotest.failf "accepted %S" text)
    [ "0 0\n# pin\nnan nan\n"; "0 0\n\ninf 0\n"; "0 0\n\n5 -inf\n";
      "0 0\n\n1e999 2\n" ]

let prop_netfile_roundtrip =
  QCheck.Test.make ~name:"netfile roundtrip on random nets" ~count:30
    QCheck.(pair small_int (int_range 2 20))
    (fun (seed, pins) ->
      let g = Rng.create seed in
      let net = Netgen.uniform g ~region:(Rect.square 10_000.0) ~pins in
      match Netfile.of_string (Netfile.to_string net) with
      | Error _ -> false
      | Ok net' ->
          (* %.6g printing: coordinates agree to ~1e-4 um relative. *)
          Array.for_all2
            (fun (a : Point.t) (b : Point.t) ->
              abs_float (a.Point.x -. b.Point.x) < 0.5
              && abs_float (a.Point.y -. b.Point.y) < 0.5)
            (Net.pins net) (Net.pins net'))

let suites =
  [ ( "harness",
      [ Alcotest.test_case "render groups blocks" `Quick
          test_render_groups_blocks;
        Alcotest.test_case "table2 (cheap oracle)" `Quick test_table2_cheap;
        Alcotest.test_case "table5 (cheap oracle)" `Quick test_table5_cheap;
        Alcotest.test_case "table6 (cheap oracle)" `Quick test_table6_cheap;
        Alcotest.test_case "figure machinery" `Quick test_figure_machinery;
        Alcotest.test_case "extensions render" `Quick test_extensions_render;
        Alcotest.test_case "artefact list" `Quick test_artefact_list;
        Alcotest.test_case "netfile roundtrip" `Quick test_netfile_roundtrip;
        Alcotest.test_case "netfile comments" `Quick
          test_netfile_comments_and_blanks;
        Alcotest.test_case "netfile errors" `Quick test_netfile_errors;
        Alcotest.test_case "netfile rejects non-finite" `Quick
          test_netfile_rejects_non_finite;
        QCheck_alcotest.to_alcotest prop_netfile_roundtrip ] ) ]
