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

let flag = function
  | Harness.Runs.Table n -> Printf.sprintf "--table %d" n
  | Harness.Runs.Figure n -> Printf.sprintf "--figure %d" n
  | Harness.Runs.Ext e -> "--ext " ^ e

(* A paper section: each of its artefacts prints what tables.exe prints
   for it, a blank line apart. *)
let run_paper_section config ~svg_dir name =
  List.filter (fun a -> a.Harness.Runs.section = name) Harness.Runs.artefacts
  |> List.iteri (fun i a ->
         progress "section %s: %s..." name (flag a.Harness.Runs.selector);
         if i > 0 then print_newline ();
         print_string (a.Harness.Runs.render config ~svg_dir))

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
  (* One prepared fast-SPICE round of a 12-pin MST: each run scores its
     next addition, with the round's running bound as the greedy loop
     hands it, so a run is one incremental candidate. *)
  let mst12 = Routing.mst_of_net (net 12) in
  let round =
    match Delay.Model.prepare spice_model ~tech mst12 with
    | Ok round -> round
    | Error e -> Nontree_error.raise_error e
  in
  let moves = Array.of_list (Nontree.Ldrg.adds Routing.candidate_edges mst12) in
  let next = ref 0 and best = ref Float.infinity in
  let candidate () =
    if !next = Array.length moves then begin
      next := 0;
      best := Float.infinity
    end;
    (match Delay.Model.score ~cutoff:!best round (Some moves.(!next)) with
    | Ok (Spice.Engine.Exact ds) ->
        best := Float.min !best (Delay.Sinks.largest ds)
    | Ok (Spice.Engine.Above _) | Error _ -> ());
    incr next
  in
  let tests =
    Test.make_grouped ~name:"kernels"
      [ Test.make ~name:"mst-30pin"
          (Staged.stage (fun () -> ignore (Routing.mst_of_net net30)));
        Test.make ~name:"elmore-30pin"
          (Staged.stage (fun () ->
               ignore
                 (Delay.Model.max_delay Delay.Model.Elmore_tree ~tech mst30)));
        Test.make ~name:"first-moment-30pin"
          (Staged.stage (fun () ->
               ignore
                 (Delay.Model.max_delay Delay.Model.First_moment ~tech mst30)));
        Test.make ~name:"spice-candidate-12pin" (Staged.stage candidate);
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
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  (* By name, each estimate with the r² of its fit: a low r² means the
     samples scattered too widely for the point estimate to compare. *)
  Printf.printf "Kernel timings (ns per run, OLS fit, r² of the fit):\n";
  Hashtbl.fold (fun name r acc -> (name, r) :: acc) results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, r) ->
         match (Analyze.OLS.estimates r, Analyze.OLS.r_square r) with
         | Some [ ns ], Some r2 ->
             Printf.printf "  %-28s %12.0f ns  r² %.4f\n" name ns r2
         | Some [ ns ], None -> Printf.printf "  %-28s %12.0f ns\n" name ns
         | _ -> Printf.printf "  %-28s (no estimate)\n" name)

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
  sparse_factorizations_total : int;
  refactors : int;
  refactor_fallbacks : int;
}

let snapshot_counters () =
  { rank1_updates = counter_value "lu.rank1_updates";
    inc_hits = counter_value "oracle.incremental_hits";
    inc_fallbacks = counter_value "oracle.incremental_fallbacks";
    sparse_factorizations_total = counter_value "sparse.factorizations";
    refactors = counter_value "sparse.refactors";
    refactor_fallbacks = counter_value "sparse.refactor_fallbacks" }

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
  (* Run-level incremental-scoring tallies over the paper sections (not
     bechamel's): how many rank-1 updates were built, how many
     candidate evaluations they served, how often the robust path had
     to take over, the sparse factorisations run, and how many of those
     refactored on a recorded factorisation or declined from it to the
     full kernel. *)
  Printf.bprintf buf "  \"incremental\": {\n";
  Printf.bprintf buf "    \"rank1_updates\": %d,\n" counters.rank1_updates;
  Printf.bprintf buf "    \"hits\": %d,\n" counters.inc_hits;
  Printf.bprintf buf "    \"fallbacks\": %d,\n" counters.inc_fallbacks;
  Printf.bprintf buf "    \"sparse_factorizations\": %d,\n"
    counters.sparse_factorizations_total;
  Printf.bprintf buf "    \"refactors\": %d,\n" counters.refactors;
  Printf.bprintf buf "    \"refactor_fallbacks\": %d\n"
    counters.refactor_fallbacks;
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
  let sizes = ref [ 5; 10; 20; 30 ] in
  let seed = ref 1994 in
  let sections = Harness.Runs.sections @ [ "bechamel" ] in
  let wanted = ref sections in
  let quick = ref false in
  let accurate = ref false in
  let svg_dir = ref "figures" in
  let jobs = ref 1 in
  let bench_json = ref "" in
  let metrics_json = ref "" in
  let csv s =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  (* Both lists are checked as they are parsed, so a bad one stops the
     run before anything runs or is written. *)
  let set_sizes s =
    try sizes := List.map int_of_string (csv s)
    with Failure _ ->
      raise (Arg.Bad ("--sizes expects comma-separated integers, not " ^ s))
  in
  let set_only s =
    match List.filter (fun n -> not (List.mem n sections)) (csv s) with
    | [] -> wanted := (match csv s with [] -> sections | names -> names)
    | unknown ->
        raise
          (Arg.Bad
             (Printf.sprintf "--only: unknown section %s (sections: %s)"
                (String.concat "," unknown) (String.concat "," sections)))
  in
  let spec =
    [ ("--trials", Arg.Set_int trials, "N  trials per net size (default 50)");
      ("--sizes", Arg.String set_sizes, "CSV  net sizes (default 5,10,20,30)");
      ("--seed", Arg.Set_int seed, "N  experiment seed (default 1994)");
      ( "--only",
        Arg.String set_only,
        "LIST  subset of sections to run: "
        ^ String.concat "," sections
        ^ " (default all)" );
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
        "PATH  write machine-readable per-section stats (schema \
         nontree-bench-v1) to PATH; re-baseline with a full run and \
         --bench-json BENCH_nontree.json (default: none)" );
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
    sizes := [ 5; 10; 20 ]
  end;
  let eval_model =
    if !accurate then Delay.Model.Spice Delay.Model.accurate_spice
    else Delay.Model.Spice Delay.Model.fast_spice
  in
  Logs.set_reporter (Logs.format_reporter ~dst:Format.err_formatter ());
  let jobs_requested = !jobs in
  let jobs =
    match Harness.Runs.clamp_jobs jobs_requested with
    | Ok jobs -> jobs
    | Error e ->
        prerr_endline ("bench: " ^ e);
        exit 2
  in
  let config =
    { Nontree.Experiment.default with
      trials = !trials;
      sizes = !sizes;
      seed = !seed;
      eval_model;
      jobs }
  in
  (* The bench always records spans: per-section wall time below comes
     from the same span log the manifest serialises, so BENCH_nontree.json
     and --metrics-json report from one source of truth. *)
  Obs.set_enabled true;
  let stats = ref [] in
  let section name f =
    if List.mem name !wanted then begin
      (* Each section starts from an empty memo, so its hits and entries
         are its own. Wall time comes from the "bench.<name>" span;
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
    !seed !trials
    (String.concat "," (List.map string_of_int !sizes))
    (Delay.Model.name config.Nontree.Experiment.eval_model);
  Printf.printf "jobs %d\n\n" jobs;
  let run_t0 = Unix.gettimeofday () in
  (try
     (* Before any section runs, so an unusable --svg-dir costs
        nothing. *)
     if List.mem "figures" !wanted then Harness.Runs.ensure_svg_dir !svg_dir;
     List.iter
       (fun name ->
         section name (fun () -> run_paper_section config ~svg_dir:!svg_dir name))
       Harness.Runs.sections
   with Harness.Runs.Svg_unwritable msg ->
     (* No baseline is written. *)
     prerr_endline ("bench: cannot write SVG: " ^ msg);
     exit 124);
  (* The run-level tallies cover the paper sections only: Bechamel
     repeats its kernels as often as its time quota allows. *)
  let counters = snapshot_counters () in
  section "bechamel" run_bechamel;
  let total_wall_s = Unix.gettimeofday () -. run_t0 in
  if !bench_json <> "" then begin
    let json =
      json_of_stats ~jobs ~seed:!seed ~trials:!trials ~sizes:!sizes
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
            ("jobs", Int jobs);
            ("jobs_requested", Int jobs_requested);
            ("trials", Int !trials);
            ("sizes", List (List.map (fun s -> Int s) !sizes));
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
