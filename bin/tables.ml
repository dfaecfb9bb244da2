(* tables: regenerate one paper artefact (table, figure or extension).

     bin/tables.exe --table 6 --trials 20
     bin/tables.exe --figure 2
     bin/tables.exe --ext rlc *)

open Cmdliner

let config_of trials sizes seed jobs =
  { Nontree.Experiment.default with trials; sizes; seed; jobs }

(* The figures and extensions on offer, as the list names them. *)
let figures =
  List.filter_map
    (function
      | { Harness.Runs.selector = Harness.Runs.Figure n; _ } ->
          Some (string_of_int n)
      | _ -> None)
    Harness.Runs.artefacts

let extensions =
  List.filter_map
    (function
      | { Harness.Runs.selector = Harness.Runs.Ext e; _ } -> Some e
      | _ -> None)
    Harness.Runs.artefacts

(* "1, 2, 3 or 5" *)
let one_of names =
  match List.rev names with
  | last :: (_ :: _ as rest) ->
      String.concat ", " (List.rev rest) ^ " or " ^ last
  | _ -> String.concat "" names

(* The artefact the flags select, as a lookup in the one list both
   drivers print from. *)
let lookup table figure ext =
  let find selector missing =
    match
      List.find_opt
        (fun a -> a.Harness.Runs.selector = selector)
        Harness.Runs.artefacts
    with
    | Some a -> `Ok a
    | None -> `Error (false, missing)
  in
  match (table, figure, ext) with
  | Some t, None, None ->
      find (Harness.Runs.Table t) (Printf.sprintf "no table %d in the paper" t)
  | None, Some f, None ->
      find (Harness.Runs.Figure f)
        (Printf.sprintf "no figure %d (%s)" f (one_of figures))
  | None, None, Some e -> find (Harness.Runs.Ext e) ("unknown extension " ^ e)
  | None, None, None ->
      `Error (true, "pick one of --table, --figure or --ext")
  | _ -> `Error (true, "--table, --figure and --ext are mutually exclusive")

(* Everything the manifest needs to reproduce the run: the knobs that
   feed [config_of] plus the fault rate. *)
let manifest_meta ~trials ~sizes ~seed ~jobs ~jobs_requested ~fault_rate =
  Obs.Json.
    [ ("seed", Int seed);
      ("jobs", Int jobs);
      ("jobs_requested", Int jobs_requested);
      ("trials", Int trials);
      ("sizes", List (List.map (fun s -> Int s) sizes));
      ("fault_rate", Float fault_rate) ]

let write_manifest ~path ~meta =
  let s = Nontree.Oracle.Cache.stats () in
  Obs.Manifest.write ~path
    ~argv:(Array.to_list Sys.argv)
    ~meta
    ~extra:
      [ ( "cache",
          Obs.Json.Obj
            [ ("hits", Obs.Json.Int s.Nontree.Oracle.Cache.hits);
              ("misses", Obs.Json.Int s.Nontree.Oracle.Cache.misses);
              ("entries", Obs.Json.Int s.Nontree.Oracle.Cache.entries) ] ) ]
    ();
  Printf.eprintf "wrote metrics manifest %s\n%!" path

let run table figure ext trials sizes seed svg_dir fault_rate fault_seed
    jobs_requested metrics_json trace log_level =
  Logs.set_reporter (Logs.format_reporter ~dst:Format.err_formatter ());
  Logs.set_level log_level;
  match Harness.Runs.clamp_jobs jobs_requested with
  | Error e -> `Error (false, e)
  | Ok jobs ->
      if trace || metrics_json <> None then Obs.set_enabled true;
      Nontree_error.Counters.reset ();
      Nontree.Oracle.Cache.reset ();
      if fault_rate > 0.0 then
        (* Derive the fault schedule from the experiment seed unless pinned,
           so --seed alone reproduces the whole run, faults included. *)
        Fault.enable_uniform ~rate:fault_rate
          ~seed:(match fault_seed with Some s -> s | None -> seed + 0x5EED)
      else Fault.disable ();
      let config = config_of trials sizes seed jobs in
      let result =
        match lookup table figure ext with
        | `Error _ as e -> e
        | `Ok a -> (
            try
              print_string (a.Harness.Runs.render config ~svg_dir);
              `Ok ()
            with
            | Nontree_error.Error e ->
                `Error (false, "oracle failure: " ^ Nontree_error.to_string e)
            | Harness.Runs.Svg_unwritable msg ->
                `Error (false, "cannot write SVG: " ^ msg))
      in
      (match Harness.Runs.robustness_summary () with
      | Some line -> Printf.eprintf "%s\n%!" line
      | None -> ());
      (match Nontree.Oracle.Cache.summary () with
      | Some line -> Printf.eprintf "%s\n%!" line
      | None -> ());
      if trace then (
        match Obs.span_summary () with
        | Some s -> Printf.eprintf "%s%!" s
        | None -> ());
      (* Write the manifest even when the run errored: a partial run's
         counters are exactly what post-mortems want. *)
      (match metrics_json with
      | Some path ->
          write_manifest ~path
            ~meta:
              (manifest_meta ~trials ~sizes ~seed ~jobs ~jobs_requested
                 ~fault_rate)
      | None -> ());
      result

let table =
  Arg.(
    value
    & opt (some int) None
    & info [ "table" ] ~docv:"N" ~doc:"Regenerate Table $(docv) (1-7).")

let figure =
  Arg.(
    value
    & opt (some int) None
    & info [ "figure" ] ~docv:"N"
        ~doc:
          (Printf.sprintf "Regenerate Figure $(docv) (%s)."
             (String.concat ", " figures)))

let ext =
  Arg.(
    value
    & opt (some string) None
    & info [ "ext" ] ~docv:"NAME"
        ~doc:("Extension experiment: " ^ String.concat ", " extensions ^ "."))

let trials =
  Arg.(value & opt int 50 & info [ "trials" ] ~docv:"N" ~doc:"Trials per size.")

let sizes =
  Arg.(
    value
    & opt (list int) [ 5; 10; 20; 30 ]
    & info [ "sizes" ] ~docv:"CSV" ~doc:"Net sizes.")

let seed =
  Arg.(value & opt int 1994 & info [ "seed" ] ~docv:"N" ~doc:"Experiment seed.")

let svg_dir =
  Arg.(
    value & opt string "figures"
    & info [ "svg-dir" ] ~docv:"DIR" ~doc:"Figure SVG output directory.")

let fault_rate =
  Arg.(
    value & opt float 0.0
    & info [ "fault-rate" ] ~docv:"P"
        ~doc:
          "Inject oracle faults with total probability $(docv) per \
           evaluation (split evenly over singular-stamp, NaN-waveform and \
           stalled-probe faults). 0 disables injection.")

let fault_seed =
  Arg.(
    value
    & opt (some int) None
    & info [ "fault-seed" ] ~docv:"N"
        ~doc:
          "Seed for the fault schedule; defaults to a value derived from \
           --seed.")

let jobs =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for per-net fan-out and candidate scoring. 1 \
           (the default) runs the sequential path; any value produces the \
           same table contents — only wall time changes. Values above the \
           core count are lowered to it, with a warning.")

let metrics_json =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"PATH"
        ~doc:
          "Write a nontree-obs-v1 run manifest (git describe, argv, run \
           parameters, counters, histograms, trace spans, cache stats) to \
           $(docv). Enables span recording; table output on stdout is \
           unchanged.")

let trace =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Record tracing spans and print a per-span summary (call count, \
           total wall time) to stderr after the run.")

let log_level =
  let levels =
    [ ("quiet", None);
      ("error", Some Logs.Error);
      ("warning", Some Logs.Warning);
      ("info", Some Logs.Info);
      ("debug", Some Logs.Debug) ]
  in
  Arg.(
    value
    & opt (enum levels) (Some Logs.Warning)
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Diagnostic verbosity on stderr: quiet, error, warning, info or \
           debug. Retries log at info, degradations at warning.")

let cmd =
  let doc = "regenerate a single table or figure of the paper" in
  Cmd.v
    (Cmd.info "tables" ~doc)
    Term.(
      ret
        (const run $ table $ figure $ ext $ trials $ sizes $ seed $ svg_dir
        $ fault_rate $ fault_seed $ jobs $ metrics_json $ trace $ log_level))

let () = exit (Cmd.eval cmd)
