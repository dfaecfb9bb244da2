let source = 0

let worst_sink delays =
  List.fold_left
    (fun best (v, d) ->
      match best with Some (_, d') when d' >= d -> best | _ -> Some (v, d))
    None delays

let h1 ~model ~tech initial =
  let evaluations = ref 0 in
  let sink_delays r =
    incr evaluations;
    Oracle.Cache.sink_delays ~model ~tech r
  in
  let rec loop current current_delays steps =
    match worst_sink current_delays with
    | None -> (current, steps)
    | Some (w, _) ->
        if Graphs.Wgraph.mem_edge (Routing.graph current) source w then
          (current, steps)
        else begin
          let trial = Routing.add_edge current source w in
          match Oracle.candidate (fun () -> sink_delays trial) with
          | None -> (current, steps)
          | Some trial_delays ->
              let before = Delay.Sinks.max_delay current_delays in
              let after = Delay.Sinks.max_delay trial_delays in
              if after < before *. (1.0 -. 1e-9) then begin
                let step =
                  { Ldrg.edge = (source, w);
                    objective_before = before;
                    objective_after = after;
                    cost_before = Routing.cost current;
                    cost_after = Routing.cost trial }
                in
                loop trial trial_delays (step :: steps)
              end
              else (current, steps)
        end
  in
  let initial_delays = sink_delays initial in
  let final, steps = loop initial initial_delays [] in
  { Ldrg.initial;
    final;
    steps = List.rev steps;
    evaluations = !evaluations }

let add_source_edge r = function
  | None -> (r, None)
  | Some v ->
      if Graphs.Wgraph.mem_edge (Routing.graph r) source v then (r, None)
      else (Routing.add_edge r source v, Some (source, v))

let h2 ~tech r =
  let delays = Delay.Elmore.sink_delays ~tech r in
  add_source_edge r (Option.map fst (worst_sink delays))

let h3 ~tech r =
  let delays = Delay.Elmore.delays ~tech r in
  let rooted = Routing.rooted r in
  let best = ref None in
  List.iter
    (fun v ->
      if not (Graphs.Wgraph.mem_edge (Routing.graph r) source v) then begin
        let new_edge_len =
          Geom.Point.manhattan (Routing.point r source) (Routing.point r v)
        in
        let score =
          rooted.Graphs.Rooted.depth.(v) *. delays.(v) /. new_edge_len
        in
        match !best with
        | Some (_, s) when s >= score -> ()
        | _ -> best := Some (v, score)
      end)
    (Routing.sinks r);
  add_source_edge r (Option.map fst !best)
