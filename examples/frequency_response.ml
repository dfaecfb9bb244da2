(* Frequency-domain view of non-tree routing.

   The time-domain story (lower 50% delay) has a frequency-domain
   twin: the extra wire widens the interconnect's bandwidth at the
   slow sinks. Sweep MST vs LDRG at the slowest sink and render a
   Bode magnitude plot plus the step responses.

     dune exec examples/frequency_response.exe *)

let () =
  let tech = Circuit.Technology.table1 in
  let rng = Rng.create 2024 in
  let net =
    Geom.Netgen.uniform rng
      ~region:(Geom.Rect.square tech.Circuit.Technology.layout_side)
      ~pins:10
  in
  let mst = Routing.mst_of_net net in
  let trace = Nontree.Ldrg.run ~model:Delay.Model.First_moment ~tech mst in
  let graph = trace.Nontree.Ldrg.final in

  (* Slowest MST sink. *)
  let worst, _ =
    List.fold_left
      (fun (bv, bd) (v, d) -> if d > bd then (v, d) else (bv, bd))
      (1, 0.0)
      (Delay.Model.sink_delays Delay.Model.First_moment ~tech mst)
  in
  let probe = Delay.Lumping.vertex_node_name worst in
  Printf.printf "slowest MST sink: n%d\n" worst;

  (* AC sweeps. *)
  let freqs =
    Spice.Ac.log_frequencies ~f_start:1e6 ~f_stop:1e11 ~points_per_decade:12
  in
  let sweep r =
    let nl, _ = Delay.Lumping.circuit_of_routing ~tech r in
    List.hd
      (Spice.Ac.analyze nl ~source:"Vin" ~probes:[ probe ] ~frequencies:freqs)
  in
  let s_mst = sweep mst and s_graph = sweep graph in
  let report name s =
    match Spice.Ac.bandwidth_3db s with
    | Some bw -> Printf.printf "  %-5s 3 dB bandwidth %.3g MHz\n" name (bw /. 1e6)
    | None -> Printf.printf "  %-5s band edge beyond sweep\n" name
  in
  report "MST" s_mst;
  report "LDRG" s_graph;

  let bode_series name s =
    { Plot.label = name;
      points =
        Array.of_list
          (List.map
             (fun (p : Spice.Ac.point) ->
               (p.Spice.Ac.freq_hz, Spice.Ac.magnitude_db p))
             s) }
  in
  Plot.write_svg "frequency_response_bode.svg"
    (Plot.create ~x_axis:Plot.Log10 ~x_label:"frequency (Hz)"
       ~y_label:"|V(sink)| (dB)" ~title:"MST vs LDRG at the slowest sink"
       [ bode_series "MST" s_mst; bode_series "LDRG" s_graph ]);

  (* Step responses of the same sink. *)
  let horizon = 3.0 *. Delay.Model.spice_horizon ~tech mst in
  let wave r =
    let nl, _ = Delay.Lumping.circuit_of_routing ~tech r in
    let trace =
      match
        Spice.Engine.transient_result nl ~tstop:horizon ~probes:[ probe ]
      with
      | Ok trace -> trace
      | Error e -> Nontree_error.raise_error e
    in
    let v = Spice.Trace.signal trace probe in
    Array.mapi (fun i t -> (t *. 1e9, v.(i))) trace.Spice.Trace.times
  in
  Plot.write_svg "frequency_response_step.svg"
    (Plot.create ~x_label:"time (ns)" ~y_label:"V(sink) (V)"
       ~title:"step response at the slowest sink"
       [ { Plot.label = "MST"; points = wave mst };
         { Plot.label = "LDRG"; points = wave graph } ]);
  print_endline "wrote frequency_response_bode.svg and frequency_response_step.svg"
