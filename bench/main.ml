(* Benchmark harness: regenerates every table and figure of the paper
   (McCoy & Robins, "Non-Tree Routing", DATE 1994), the Section 5
   extension experiments, and a Bechamel timing section for the core
   algorithm kernels.

     dune exec bench/main.exe                 # everything, paper scale
     dune exec bench/main.exe -- --quick      # reduced scale smoke run
     dune exec bench/main.exe -- --only 2,6   # just Tables 2 and 6
     dune exec bench/main.exe -- --trials 10 --sizes 5,10

   Normalised numbers are expected to match the paper in *shape* (who
   wins, how gains scale with net size), not in absolute nanoseconds:
   the evaluation substrate here is this repository's own MNA transient
   engine rather than Berkeley SPICE2 on 1993 hardware. *)

(* Wall-clock zero for progress reporting. *)
let start_t0 = Unix.gettimeofday ()

let progress fmt =
  Printf.ksprintf
    (fun s ->
      let t = Unix.gettimeofday () in
      Printf.eprintf "[%8.1fs] %s\n%!" (t -. start_t0) s)
    fmt

(* Sections ------------------------------------------------------------- *)

let run_table1 config = print_string (Harness.Runs.table1 config)

let run_table2 config =
  progress "Table 2: LDRG vs MST (SPICE oracle, the expensive one)...";
  let rows = Harness.Runs.table2 config in
  print_string
    (Harness.Table.render ~title:"Table 2: LDRG Algorithm Statistics"
       ~baseline:"the MST routing" rows)

let run_table3 config =
  progress "Table 3: SLDRG vs Steiner tree...";
  let rows = Harness.Runs.table3 config in
  print_string
    (Harness.Table.render ~title:"Table 3: SLDRG Algorithm Statistics"
       ~baseline:"the Iterated-1-Steiner tree" rows)

let run_table4 config =
  progress "Table 4: H1 heuristic...";
  let rows = Harness.Runs.table4 config in
  print_string
    (Harness.Table.render ~title:"Table 4: H1 Heuristic Statistics"
       ~baseline:"the MST routing" rows)

let run_table5 config =
  progress "Table 5: H2 and H3 heuristics...";
  let h2, h3 = Harness.Runs.table5 config in
  print_string
    (Harness.Table.render ~title:"Table 5a: H2 Heuristic Statistics"
       ~baseline:"the MST routing" h2);
  print_newline ();
  print_string
    (Harness.Table.render ~title:"Table 5b: H3 Heuristic Statistics"
       ~baseline:"the MST routing" h3)

let run_table6 config =
  progress "Table 6: ERT vs MST...";
  let rows = Harness.Runs.table6 config in
  print_string
    (Harness.Table.render ~title:"Table 6: Elmore Routing Tree Statistics"
       ~baseline:"the MST routing" rows)

let run_table7 config =
  progress "Table 7: ERT-seeded LDRG vs ERT...";
  let rows = Harness.Runs.table7 config in
  print_string
    (Harness.Table.render
       ~title:"Table 7: ERT-Based LDRG Algorithm Statistics"
       ~baseline:"the ERT routing" rows)

let run_figures config ~svg_dir =
  progress "Figures 1, 2, 3 and 5...";
  (try Unix.mkdir svg_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  List.iter
    (fun fig ->
      let f = fig config in
      print_string (Harness.Runs.render_figure f);
      let paths = Harness.Runs.save_figure_svgs ~dir:svg_dir f in
      List.iter (fun p -> Printf.printf "  svg: %s\n" p) paths;
      print_newline ())
    [ Harness.Runs.figure1; Harness.Runs.figure2; Harness.Runs.figure3;
      Harness.Runs.figure5 ]

let run_extensions config =
  progress "Extension experiments (Section 5)...";
  print_string (Harness.Runs.ext_csorg config);
  print_newline ();
  print_string (Harness.Runs.ext_wsorg config);
  print_newline ();
  print_string (Harness.Runs.ext_oracle config);
  print_newline ();
  print_string (Harness.Runs.ext_rlc config);
  print_newline ();
  print_string (Harness.Runs.ext_trees config);
  print_newline ();
  print_string (Harness.Runs.ext_budget config);
  print_newline ();
  print_string (Harness.Runs.ext_prune config);
  print_newline ();
  print_string (Harness.Runs.ext_sensitivity config)

(* Bechamel timing of the algorithm kernels ------------------------------ *)

let run_bechamel () =
  progress "Bechamel kernel timings...";
  let open Bechamel in
  let tech = Circuit.Technology.table1 in
  let net pins =
    let g = Rng.create 2025 in
    Geom.Netgen.uniform g ~region:(Geom.Rect.square 10_000.0) ~pins
  in
  let net30 = net 30 and net10 = net 10 in
  let mst30 = Routing.mst_of_net net30 in
  let mst10 = Routing.mst_of_net net10 in
  let spice_model = Delay.Model.Spice Delay.Model.fast_spice in
  let tests =
    Test.make_grouped ~name:"kernels"
      [ Test.make ~name:"mst-30pin"
          (Staged.stage (fun () -> ignore (Routing.mst_of_net net30)));
        Test.make ~name:"elmore-30pin"
          (Staged.stage (fun () -> ignore (Delay.Elmore.max_delay ~tech mst30)));
        Test.make ~name:"first-moment-30pin"
          (Staged.stage (fun () ->
               ignore (Delay.Moments.max_delay ~tech mst30)));
        Test.make ~name:"spice-eval-10pin"
          (Staged.stage (fun () ->
               ignore (Delay.Model.max_delay spice_model ~tech mst10)));
        Test.make ~name:"ert-10pin"
          (Staged.stage (fun () -> ignore (Ert.construct ~tech net10)));
        Test.make ~name:"i1steiner-10pin"
          (Staged.stage (fun () ->
               ignore (Steiner.Iterated_1steiner.construct net10)));
        Test.make ~name:"ldrg-moment-10pin"
          (Staged.stage (fun () ->
               ignore
                 (Nontree.Ldrg.run ~model:Delay.Model.First_moment ~tech mst10)))
      ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  (* Kernels time the computation: with the memo on, every repetition
     of the LDRG kernel after the first would be a cache hit. *)
  let cache_was = Nontree.Oracle.Cache.enabled () in
  Nontree.Oracle.Cache.set_enabled false;
  let raw =
    Fun.protect
      ~finally:(fun () -> Nontree.Oracle.Cache.set_enabled cache_was)
      (fun () -> Benchmark.all cfg instances tests)
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false
      ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Printf.printf "Kernel timings (ns per run, OLS fit):\n";
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ ns ] -> Printf.printf "  %-28s %12.0f ns\n" name ns
      | _ -> Printf.printf "  %-28s (no estimate)\n" name)
    results

let counter_value name = Obs.Counter.value (Obs.Counter.make name)

(* Per-section accounting -------------------------------------------------- *)

(* What BENCH_nontree.json records for each section that ran: wall time,
   how many robust-oracle and incremental (rank-1 update) evaluations
   it issued, how many transient steps they integrated, and how its own
   memo fared (the bench resets the memo at the start of every
   section). *)
type section_stats = {
  name : string;
  wall_s : float;
  oracle_calls : int;
  incremental_evals : int;
  spice_steps : int;
  cache_hits : int;
  cache_misses : int;
}

let hit_rate s =
  let total = s.cache_hits + s.cache_misses in
  if total = 0 then 0.0 else float_of_int s.cache_hits /. float_of_int total

type run_counters = {
  rank1_updates : int;
  inc_hits : int;
  inc_fallbacks : int;
  lu_factorizations : int;
  sparse_factorizations_total : int;
}

let snapshot_counters () =
  { rank1_updates = counter_value "lu.rank1_updates";
    inc_hits = counter_value "oracle.incremental_hits";
    inc_fallbacks = counter_value "oracle.incremental_fallbacks";
    lu_factorizations = counter_value "lu.factorizations";
    sparse_factorizations_total = counter_value "sparse.factorizations" }

let json_of_stats ~jobs ~seed ~trials ~sizes ~total_wall_s ~counters sections =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"nontree-bench-v1\",\n";
  Printf.bprintf buf "  \"jobs\": %d,\n" jobs;
  Printf.bprintf buf "  \"seed\": %d,\n" seed;
  Printf.bprintf buf "  \"trials\": %d,\n" trials;
  Printf.bprintf buf "  \"sizes\": [%s],\n"
    (String.concat ", " (List.map string_of_int sizes));
  Printf.bprintf buf "  \"total_wall_s\": %.3f,\n" total_wall_s;
  (* Run-level incremental-scoring tallies: how many rank-1 updates
     were built, how many candidate evaluations they served, how often
     the robust path had to take over, and the full factorization count
     they are meant to suppress. *)
  Printf.bprintf buf "  \"incremental\": {\n";
  Printf.bprintf buf "    \"rank1_updates\": %d,\n" counters.rank1_updates;
  Printf.bprintf buf "    \"hits\": %d,\n" counters.inc_hits;
  Printf.bprintf buf "    \"fallbacks\": %d,\n" counters.inc_fallbacks;
  Printf.bprintf buf "    \"lu_factorizations\": %d,\n"
    counters.lu_factorizations;
  Printf.bprintf buf "    \"sparse_factorizations\": %d\n"
    counters.sparse_factorizations_total;
  Buffer.add_string buf "  },\n";
  Buffer.add_string buf "  \"sections\": [\n";
  List.iteri
    (fun i s ->
      Printf.bprintf buf
        "    { \"name\": %S, \"wall_s\": %.3f, \"oracle_calls\": %d, \
         \"incremental_evals\": %d, \"spice_steps\": %d, \
         \"cache_hits\": %d, \"cache_misses\": %d, \
         \"cache_hit_rate\": %.4f }%s\n"
        s.name s.wall_s s.oracle_calls s.incremental_evals s.spice_steps
        s.cache_hits s.cache_misses (hit_rate s)
        (if i = List.length sections - 1 then "" else ","))
    sections;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

(* CLI -------------------------------------------------------------------- *)

let () =
  let trials = ref 50 in
  let sizes = ref "5,10,20,30" in
  let seed = ref 1994 in
  let only = ref "" in
  let quick = ref false in
  let accurate = ref false in
  let svg_dir = ref "figures" in
  let jobs = ref 1 in
  let bench_json = ref "BENCH_nontree.json" in
  let metrics_json = ref "" in
  let spec =
    [ ("--trials", Arg.Set_int trials, "N  trials per net size (default 50)");
      ("--sizes", Arg.Set_string sizes, "CSV  net sizes (default 5,10,20,30)");
      ("--seed", Arg.Set_int seed, "N  experiment seed (default 1994)");
      ( "--only",
        Arg.Set_string only,
        "LIST  subset to run, e.g. 2,3,figures,ext,bechamel" );
      ("--quick", Arg.Set quick, "  reduced scale (12 trials, sizes 5,10,20)");
      ( "--accurate",
        Arg.Set accurate,
        "  evaluate with the accurate SPICE profile" );
      ("--svg-dir", Arg.Set_string svg_dir, "DIR  figure output (default figures)");
      ( "--jobs",
        Arg.Set_int jobs,
        "N  worker domains, at most the core count; table contents are \
         identical for any value (default 1)" );
      ( "--bench-json",
        Arg.Set_string bench_json,
        "PATH  machine-readable per-section stats (default \
         BENCH_nontree.json; empty string disables)" );
      ( "--metrics-json",
        Arg.Set_string metrics_json,
        "PATH  nontree-obs-v1 run manifest (counters, histograms, trace \
         spans; default off)" )
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "nontree benchmark harness";
  if !quick then begin
    trials := 12;
    sizes := "5,10,20"
  end;
  let size_list =
    String.split_on_char ',' !sizes
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
    |> List.map int_of_string
  in
  let eval_model =
    if !accurate then Delay.Model.Spice Delay.Model.accurate_spice
    else Delay.Model.Spice Delay.Model.fast_spice
  in
  if !jobs < 1 then begin
    prerr_endline "bench: --jobs must be >= 1";
    exit 2
  end;
  (* More worker domains than cores only slows the run down: OCaml 5
     minor collections stop every domain. *)
  let jobs_requested = !jobs in
  let cores = Domain.recommended_domain_count () in
  if jobs_requested > cores then begin
    progress "warning: --jobs %d exceeds the %d available cores; using %d"
      jobs_requested cores cores;
    jobs := cores
  end;
  let config =
    { Nontree.Experiment.default with
      trials = !trials;
      sizes = size_list;
      seed = !seed;
      eval_model;
      jobs = !jobs }
  in
  (* The bench always records spans: per-section wall time below comes
     from the same span log the manifest serialises, so BENCH_nontree.json
     and --metrics-json report from one source of truth. *)
  Obs.set_enabled true;
  let wanted =
    if !only = "" then
      [ "1"; "2"; "3"; "4"; "5"; "6"; "7"; "figures"; "ext"; "bechamel" ]
    else String.split_on_char ',' !only |> List.map String.trim
  in
  let stats = ref [] in
  let section name f =
    if List.mem name wanted then begin
      (* Each section starts from an empty memo, so its hits and entries
         are its own (a full run would otherwise fill the 200k-entry cap
         during table 3). Wall time comes from the "bench.<name>" span;
         the evaluation counts are counter deltas, so the run's global
         tallies survive intact for the manifest. *)
      Nontree.Oracle.Cache.reset ();
      let e0 = Delay.Robust.evaluation_count () in
      let i0 = counter_value "oracle.incremental_hits" in
      let st0 = counter_value "spice.steps" in
      Obs.span ("bench." ^ name) f;
      let wall_s =
        match Obs.Span.find ("bench." ^ name) with
        | Some sp -> sp.Obs.Span.dur_s
        | None -> 0.0
      in
      let c = Nontree.Oracle.Cache.stats () in
      let s =
        { name;
          wall_s;
          oracle_calls = Delay.Robust.evaluation_count () - e0;
          incremental_evals = counter_value "oracle.incremental_hits" - i0;
          spice_steps = counter_value "spice.steps" - st0;
          cache_hits = c.Nontree.Oracle.Cache.hits;
          cache_misses = c.Nontree.Oracle.Cache.misses }
      in
      stats := s :: !stats;
      progress
        "section %s: %.1fs wall, %d oracle calls, %d incremental, %d spice \
         steps, cache %d/%d hits (%.1f%%)"
        name wall_s s.oracle_calls s.incremental_evals s.spice_steps
        s.cache_hits (s.cache_hits + s.cache_misses)
        (100.0 *. hit_rate s);
      print_newline ()
    end
  in
  Printf.printf
    "Non-Tree Routing (McCoy & Robins, DATE 1994) -- reproduction harness\n";
  Printf.printf "seed %d, %d trials per size, sizes [%s], eval model %s\n"
    !seed !trials !sizes
    (Delay.Model.name config.Nontree.Experiment.eval_model);
  Printf.printf "jobs %d\n\n" !jobs;
  let run_t0 = Unix.gettimeofday () in
  section "1" (fun () -> run_table1 config);
  section "2" (fun () -> run_table2 config);
  section "3" (fun () -> run_table3 config);
  section "4" (fun () -> run_table4 config);
  section "5" (fun () -> run_table5 config);
  section "6" (fun () -> run_table6 config);
  section "7" (fun () -> run_table7 config);
  section "figures" (fun () -> run_figures config ~svg_dir:!svg_dir);
  section "ext" (fun () -> run_extensions config);
  section "bechamel" (fun () -> run_bechamel ());
  let counters = snapshot_counters () in
  let total_wall_s = Unix.gettimeofday () -. run_t0 in
  if !bench_json <> "" then begin
    let json =
      json_of_stats ~jobs:!jobs ~seed:!seed ~trials:!trials ~sizes:size_list
        ~total_wall_s ~counters (List.rev !stats)
    in
    let oc = open_out !bench_json in
    output_string oc json;
    close_out oc;
    progress "wrote %s" !bench_json
  end;
  if !metrics_json <> "" then begin
    (* Run totals: the memo restarts with every section. *)
    let sum f = List.fold_left (fun acc s -> acc + f s) 0 !stats in
    Obs.Manifest.write ~path:!metrics_json
      ~argv:(Array.to_list Sys.argv)
      ~meta:
        Obs.Json.
          [ ("seed", Int !seed);
            ("jobs", Int !jobs);
            ("jobs_requested", Int jobs_requested);
            ("trials", Int !trials);
            ("sizes", List (List.map (fun s -> Int s) size_list));
            ("eval_model",
             String (Delay.Model.name config.Nontree.Experiment.eval_model)) ]
      ~extra:
        [ ( "cache",
            Obs.Json.Obj
              [ ("hits", Obs.Json.Int (sum (fun s -> s.cache_hits)));
                ("misses", Obs.Json.Int (sum (fun s -> s.cache_misses)));
                ("entries",
                 Obs.Json.Int
                   (Nontree.Oracle.Cache.stats ()).Nontree.Oracle.Cache.entries)
              ] ) ]
      ();
    progress "wrote %s" !metrics_json
  end;
  progress "done"
