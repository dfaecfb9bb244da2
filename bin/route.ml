(* route: construct a routing topology for a net and report its delay.

     bin/netgen.exe --pins 10 > net.txt
     bin/route.exe net.txt --algorithm ldrg --svg out.svg
     bin/route.exe net.txt --algorithm h3 --model elmore
     bin/route.exe net.txt --algorithm wsorg --deck out.cir *)

open Cmdliner

let parse_model = function
  | "elmore" -> Ok Delay.Model.Elmore_tree
  | "moment" -> Ok Delay.Model.First_moment
  | "two-pole" -> Ok Delay.Model.Two_pole
  | "spice" -> Ok (Delay.Model.Spice Delay.Model.default_spice)
  | "spice-fast" -> Ok (Delay.Model.Spice Delay.Model.fast_spice)
  | "spice-accurate" -> Ok (Delay.Model.Spice Delay.Model.accurate_spice)
  | "spice-rlc" -> Ok (Delay.Model.Spice Delay.Model.rlc_spice)
  | m -> Error ("unknown model " ^ m)

let eval_model_for_report model =
  (* Elmore cannot evaluate non-tree outputs; report with the exact
     first moment instead. *)
  match model with Delay.Model.Elmore_tree -> Delay.Model.First_moment | m -> m

let build_routing ~tech ~model net = function
  | "mst" -> Ok (Routing.mst_of_net net)
  | "ert" -> Ok (Ert.construct ~tech net)
  | "steiner" -> Ok (Steiner.Iterated_1steiner.construct net)
  | "ldrg" ->
      Ok (Nontree.Ldrg.run ~model ~tech (Routing.mst_of_net net)).Nontree.Ldrg.final
  | "ldrg-prune" ->
      let graph =
        (Nontree.Ldrg.run ~model ~tech (Routing.mst_of_net net))
          .Nontree.Ldrg.final
      in
      Ok (Nontree.Prune.run ~model ~tech graph).Nontree.Prune.final
  | "ldrg-ert" ->
      Ok (Nontree.Ldrg.run ~model ~tech (Ert.construct ~tech net)).Nontree.Ldrg.final
  | "sldrg" -> Ok (Nontree.Sldrg.run ~model ~tech net).Nontree.Ldrg.final
  | "h1" ->
      Ok
        (Nontree.Heuristics.h1 ~model ~tech (Routing.mst_of_net net))
          .Nontree.Ldrg.final
  | "h2" -> Ok (fst (Nontree.Heuristics.h2 ~tech (Routing.mst_of_net net)))
  | "h3" -> Ok (fst (Nontree.Heuristics.h3 ~tech (Routing.mst_of_net net)))
  | "csorg" ->
      let alphas = Nontree.Critical_sink.uniform net in
      Ok
        (Nontree.Critical_sink.ldrg ~model ~tech ~alphas
           (Routing.mst_of_net net))
          .Nontree.Ldrg.final
  | "wsorg" ->
      let base =
        (Nontree.Ldrg.run ~model ~tech (Routing.mst_of_net net))
          .Nontree.Ldrg.final
      in
      Ok (fst (Nontree.Wire_sizing.size_greedy ~model ~tech base))
  | a -> Error ("unknown algorithm " ^ a)

let run_exn net_file algorithm model_name svg deck =
  match Geom.Netfile.read net_file with
  | Error e -> `Error (false, net_file ^ ": " ^ e)
  | Ok net -> (
      let tech = Circuit.Technology.table1 in
      match parse_model model_name with
      | Error e -> `Error (false, e)
      | Ok search_model -> (
          match build_routing ~tech ~model:search_model net algorithm with
          | Error e -> `Error (false, e)
          | Ok routing ->
              let mst = Routing.mst_of_net net in
              let report = eval_model_for_report search_model in
              let delay = Delay.Model.max_delay report ~tech routing in
              let mst_delay = Delay.Model.max_delay report ~tech mst in
              Printf.printf "net: %d pins, algorithm %s, search model %s\n"
                (Geom.Net.size net) algorithm
                (Delay.Model.name search_model);
              Printf.printf
                "topology: %d vertices, %d edges%s, wirelength %.0f um\n"
                (Routing.num_vertices routing)
                (Graphs.Wgraph.num_edges (Routing.graph routing))
                (if Routing.is_tree routing then " (tree)" else " (non-tree)")
                (Routing.cost routing);
              Printf.printf "max source-sink delay: %.4g ns (%s)\n"
                (delay *. 1e9) (Delay.Model.name report);
              Printf.printf "vs MST: delay %.3f, wirelength %.3f\n"
                (delay /. mst_delay)
                (Routing.cost routing /. Routing.cost mst);
              List.iter
                (fun (v, d) ->
                  Printf.printf "  sink n%-2d delay %.4g ns\n" v (d *. 1e9))
                (Delay.Model.sink_delays report ~tech routing);
              (match svg with
              | Some path ->
                  Routing_svg.render_to_file ~title:algorithm path routing;
                  Printf.printf "svg written to %s\n" path
              | None -> ());
              (match deck with
              | Some path ->
                  let nl, sink_nodes =
                    Delay.Lumping.circuit_of_routing ~tech routing
                  in
                  (* Self-describing deck: a .tran horizon generous
                     enough for the slowest sink, and the sinks as
                     probes. *)
                  let stop = 4.0 *. Delay.Model.spice_horizon ~tech routing in
                  Circuit.Deck.write_file
                    ~title:(Printf.sprintf "%s routing" algorithm)
                    ~directive_cards:
                      [ Circuit.Deck.tran_card ~step:(stop /. 1000.0) ~stop;
                        Circuit.Deck.probe_card sink_nodes ]
                    path nl;
                  Printf.printf "SPICE deck written to %s\n" path
              | None -> ());
              `Ok ()))

(* A net the oracles cannot evaluate (e.g. coordinates so large that a
   wire's length overflows) ends in a one-line diagnostic, not an
   uncaught exception. *)
let run net_file algorithm model_name svg deck =
  try run_exn net_file algorithm model_name svg deck with
  | Nontree_error.Error e -> `Error (false, Nontree_error.to_string e)
  | Invalid_argument m -> `Error (false, m)

let net_file =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"NET" ~doc:"Net file (see bin/netgen.exe).")

let algorithm =
  Arg.(
    value & opt string "ldrg"
    & info [ "a"; "algorithm" ] ~docv:"ALGO"
        ~doc:
          "One of mst, ert, steiner, ldrg, ldrg-prune, ldrg-ert, sldrg, h1, \
           h2, h3, csorg, wsorg.")

let model =
  Arg.(
    value & opt string "spice-fast"
    & info [ "m"; "model" ] ~docv:"MODEL"
        ~doc:
          "Delay oracle: elmore, moment, two-pole, spice, spice-fast, \
           spice-accurate, spice-rlc.")

let svg =
  Arg.(
    value
    & opt (some string) None
    & info [ "svg" ] ~docv:"FILE" ~doc:"Render the routing as SVG.")

let deck =
  Arg.(
    value
    & opt (some string) None
    & info [ "deck" ] ~docv:"FILE" ~doc:"Write the lumped circuit as a SPICE deck.")

let cmd =
  let doc = "route a signal net with the non-tree routing algorithms" in
  Cmd.v
    (Cmd.info "route" ~doc)
    Term.(ret (const run $ net_file $ algorithm $ model $ svg $ deck))

let () = exit (Cmd.eval cmd)
