(* Deck I/O and the raw simulator API.

   Lower a routing to a SPICE deck, write it, read it back, simulate,
   and measure — everything an external SPICE flow would do, but
   self-contained.

     dune exec examples/deck_io.exe *)

let () =
  let tech = Circuit.Technology.table1 in
  let rng = Rng.create 3 in
  let net =
    Geom.Netgen.uniform rng
      ~region:(Geom.Rect.square tech.Circuit.Technology.layout_side)
      ~pins:6
  in
  let routing = Routing.mst_of_net net in

  (* Lower to a lumped RC circuit and write it as a deck. *)
  let nl, sinks = Delay.Lumping.circuit_of_routing ~tech routing in
  let deck = Circuit.Deck.to_string ~title:"6-pin MST, Table 1 technology" nl in
  let path = "deck_io_example.cir" in
  Circuit.Deck.write_file ~title:"6-pin MST, Table 1 technology" path nl;
  Printf.printf "wrote %s (%s)\n" path (Circuit.Netlist.stats nl);
  print_string (String.concat "\n" (List.filteri (fun i _ -> i < 8)
    (String.split_on_char '\n' deck)));
  print_endline "\n  ...";

  (* Read it back and verify the round trip is exact. *)
  (match Circuit.Deck.read_file path with
  | Error e -> failwith e
  | Ok nl' ->
      assert (Circuit.Deck.to_string ~title:"t" nl'
              = Circuit.Deck.to_string ~title:"t" nl);
      print_endline "deck round-trip: exact");

  (* Simulate and measure. *)
  let ok = function Ok x -> x | Error e -> Nontree_error.raise_error e in
  let horizon = Delay.Model.spice_horizon ~tech routing in
  let delays =
    ok (Spice.Engine.threshold_delays_result nl ~probes:sinks ~horizon)
  in
  List.iter
    (fun (probe, d) ->
      match d with
      | Some t -> Printf.printf "  %-4s 50%% delay %.3f ns\n" probe (t *. 1e9)
      | None -> Printf.printf "  %-4s did not settle\n" probe)
    delays;

  (* Waveform of the slowest sink, as CSV and an ASCII plot. *)
  let slowest =
    fst
      (List.fold_left
         (fun (bp, bt) (p, d) ->
           match d with Some t when t > bt -> (p, t) | _ -> (bp, bt))
         ("", 0.0) delays)
  in
  let trace =
    ok
      (Spice.Engine.transient_result nl ~tstop:(2.0 *. horizon)
         ~probes:[ slowest ])
  in
  Spice.Trace.write_csv "deck_io_wave.csv" trace;
  Printf.printf "wrote deck_io_wave.csv (%d samples)\n" (Spice.Trace.length trace);
  print_string (Spice.Trace.ascii_plot trace slowest)
