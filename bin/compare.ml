(* compare: run every routing construction on one net, side by side.

     bin/netgen.exe --pins 15 --seed 4 > net.txt
     bin/compare.exe net.txt
     bin/compare.exe net.txt --model spice *)

open Cmdliner

let algorithms tech model net =
  let mst = Routing.mst_of_net net in
  [ ("MST", mst);
    ("PD (c=0.25)", Trees.Pd.construct ~c:0.25 net);
    ("PD (c=0.75)", Trees.Pd.construct ~c:0.75 net);
    ("BRBC (eps=0.5)", Trees.Brbc.construct ~epsilon:0.5 net);
    ("1-Steiner", Steiner.Iterated_1steiner.construct net);
    ("ERT", Ert.construct ~tech net);
    ("H2", fst (Nontree.Heuristics.h2 ~tech mst));
    ("H3", fst (Nontree.Heuristics.h3 ~tech mst));
    ("H1", (Nontree.Heuristics.h1 ~model ~tech mst).Nontree.Ldrg.final);
    ("LDRG", (Nontree.Ldrg.run ~model ~tech mst).Nontree.Ldrg.final);
    ("SLDRG", (Nontree.Sldrg.run ~model ~tech net).Nontree.Ldrg.final);
    ( "ERT+LDRG",
      (Nontree.Ldrg.run ~model ~tech (Ert.construct ~tech net))
        .Nontree.Ldrg.final ) ]

(* --model: each name's (search, evaluation) model pair. *)
let models =
  [ ("moment", (Delay.Model.First_moment, Delay.Model.First_moment));
    ( "spice",
      ( Delay.Model.Spice Delay.Model.fast_spice,
        Delay.Model.Spice Delay.Model.default_spice ) );
    ("mixed", (Delay.Model.First_moment, Delay.Model.Spice Delay.Model.fast_spice))
  ]

let finish_observability ~model_name ~metrics_json ~trace =
  if trace then (
    match Obs.span_summary () with
    | Some s -> Printf.eprintf "%s%!" s
    | None -> ());
  match metrics_json with
  | None -> ()
  | Some path ->
      Obs.Manifest.write ~path
        ~argv:(Array.to_list Sys.argv)
        ~meta:[ ("model", Obs.Json.String model_name) ]
        ();
      Printf.eprintf "wrote metrics manifest %s\n%!" path

let run net_file model_name metrics_json trace =
  if trace || metrics_json <> None then Obs.set_enabled true;
  match Geom.Netfile.read net_file with
  | Error e -> `Error (false, net_file ^ ": " ^ e)
  | Ok net ->
      let tech = Circuit.Technology.table1 in
      let search, eval = List.assoc model_name models in
      let rows = algorithms tech search net in
      let mst = List.assoc "MST" rows in
      let delay r = Nontree.Oracle.Cache.max_delay ~model:eval ~tech r in
      let base_delay = delay mst in
      let base_cost = Routing.cost mst in
      Printf.printf
        "net %s: %d pins; delays via %s; normalised to MST\n\n" net_file
        (Geom.Net.size net) (Delay.Model.name eval);
      Printf.printf "  %-16s %9s %7s %9s %7s %8s %s\n" "algorithm" "delay/ns"
        "ratio" "wire/mm" "ratio" "radius" "kind";
      List.iter
        (fun (name, r) ->
          let d = delay r in
          Printf.printf "  %-16s %9.3f %7.3f %9.2f %7.3f %8.2f %s\n" name
            (d *. 1e9) (d /. base_delay)
            (Routing.cost r /. 1e3)
            (Routing.cost r /. base_cost)
            (Trees.Metrics.radius r /. 1e3)
            (if Routing.is_tree r then "tree" else "graph"))
        rows;
      finish_observability ~model_name ~metrics_json ~trace;
      `Ok ()

let net_file =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"NET" ~doc:"Net file (see bin/netgen.exe).")

let model =
  Arg.(
    value
    & opt (enum (List.map (fun (name, _) -> (name, name)) models)) "mixed"
    & info [ "m"; "model" ] ~docv:"MODEL"
        ~doc:
          "moment (all first-moment), spice (SPICE search and eval), or \
           mixed (first-moment search, SPICE eval; default).")

let metrics_json =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"PATH"
        ~doc:
          "Write a nontree-obs-v1 run manifest (counters, histograms, trace \
           spans) to $(docv). Stdout is unchanged.")

let trace =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Record tracing spans and print a per-span summary to stderr after \
           the run.")

let cmd =
  let doc = "compare all routing constructions on one net" in
  Cmd.v
    (Cmd.info "compare" ~doc)
    Term.(
      ret (const run $ net_file $ model $ metrics_json $ trace))

let () = exit (Cmd.eval cmd)
