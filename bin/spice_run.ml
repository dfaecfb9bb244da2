(* spice_run: simulate a SPICE deck with the built-in engine.

     bin/spice_run.exe circuit.cir --probe out --tstop 5n
     bin/spice_run.exe circuit.cir --probe out --csv wave.csv
     bin/spice_run.exe circuit.cir --probe out --delay *)

open Cmdliner

let simulate deck_file probes tstop_s csv delay plot =
  match Circuit.Deck.read_file_full deck_file with
  | Error e -> `Error (false, deck_file ^ ": " ^ e)
  | Ok (nl, directives) -> (
      (* The deck's own .probe and .tran cards are the defaults; the
         command line overrides them. *)
      let probes =
        if probes <> [] then probes else directives.Circuit.Deck.probes
      in
      let tstop_result =
        match tstop_s with
        | Some s -> Circuit.Deck.parse_number s
        | None -> (
            match directives.Circuit.Deck.analyses with
            | Circuit.Deck.Tran { stop; _ } :: _ -> Ok stop
            | [] -> Ok 10e-9)
      in
      match tstop_result with
      | Error e -> `Error (false, "--tstop: " ^ e)
      | Ok tstop ->
          if probes = [] then
            `Error (false, "need at least one --probe (or a .probe card)")
          else begin
            Printf.printf "deck: %s\n" (Circuit.Netlist.stats nl);
            let delay_result =
              if not delay then Ok ()
              else
                match
                  Spice.Engine.threshold_delays_result nl ~probes
                    ~horizon:tstop
                with
                | Error e -> Error e
                | Ok delays ->
                    (match Spice.Engine.delay_origin nl ~horizon:tstop with
                    | Some t ->
                        Printf.printf
                          "  delay origin: input 50%% crossing at %.4g ns \
                           (grid-adjusted)\n"
                          (t *. 1e9)
                    | None ->
                        print_endline
                          "  delay origin: t = 0 (no single rising step, \
                           RAMP, PULSE or PWL source)");
                    List.iter
                      (fun (name, d) ->
                        match d with
                        | Some t ->
                            Printf.printf "  %-12s 50%% delay %.4g ns\n" name
                              (t *. 1e9)
                        | None ->
                            Printf.printf "  %-12s never crossed 50%%\n" name)
                      delays;
                    Ok ()
            in
            match delay_result with
            | Error e ->
                `Error (false, "simulation failed: " ^ Nontree_error.to_string e)
            | Ok () -> (
                match Spice.Engine.transient_result nl ~tstop ~probes with
                | Error e ->
                    `Error
                      (false, "simulation failed: " ^ Nontree_error.to_string e)
                | Ok trace ->
                    List.iter
                      (fun p ->
                        let v = Spice.Trace.signal trace p in
                        Printf.printf "  %-12s final %.4g V\n" p
                          v.(Array.length v - 1))
                      probes;
                    (match csv with
                    | Some path ->
                        Spice.Trace.write_csv path trace;
                        Printf.printf "waveforms written to %s\n" path
                    | None -> ());
                    if plot then
                      List.iter
                        (fun p -> print_string (Spice.Trace.ascii_plot trace p))
                        probes;
                    `Ok ())
          end)

(* Bad probe names / horizons arrive from the command line and raise
   [Invalid_argument]; fold them into one diagnostic line and a nonzero
   exit. *)
let run deck_file probes tstop_s csv delay plot =
  try simulate deck_file probes tstop_s csv delay plot
  with Invalid_argument msg -> `Error (false, msg)

let deck_file =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"DECK" ~doc:"SPICE deck file.")

let probes =
  Arg.(
    value & opt_all string []
    & info [ "p"; "probe" ] ~docv:"NODE" ~doc:"Node to record (repeatable).")

let tstop =
  Arg.(
    value
    & opt (some string) None
    & info [ "tstop" ] ~docv:"TIME"
        ~doc:
          "Simulation horizon, SPICE units accepted (e.g. 5n); defaults to \
           the deck's .tran card, or 10 ns.")

let csv =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE" ~doc:"Dump waveforms as CSV.")

let delay =
  Arg.(value & flag & info [ "delay" ] ~doc:"Report 50 %% threshold delays.")

let plot =
  Arg.(value & flag & info [ "plot" ] ~doc:"ASCII-plot each probe.")

let cmd =
  let doc = "transient-simulate a SPICE deck" in
  Cmd.v
    (Cmd.info "spice_run" ~doc)
    Term.(ret (const run $ deck_file $ probes $ tstop $ csv $ delay $ plot))

let () = exit (Cmd.eval cmd)
