(* Tests for the core non-tree routing algorithms. *)

open Geom

let tech = Circuit.Technology.table1
let moment_model = Delay.Model.First_moment

let random_net seed pins =
  let g = Rng.create seed in
  Netgen.uniform g ~region:(Rect.square 10_000.0) ~pins

let random_mst seed pins = Routing.mst_of_net (random_net seed pins)

(* Ldrg --------------------------------------------------------------- *)

let test_ldrg_no_improvement_possible () =
  (* Objective = wirelength: adding wire can only hurt, so LDRG must
     terminate immediately with the initial topology. *)
  let r = random_mst 1 8 in
  let trace = Nontree.Ldrg.run_objective ~objective:Routing.cost r in
  Alcotest.(check int) "no steps" 0 (List.length trace.Nontree.Ldrg.steps);
  Alcotest.(check (float 0.0)) "unchanged cost" (Routing.cost r)
    (Routing.cost trace.Nontree.Ldrg.final)

let test_ldrg_max_edges_cap () =
  (* Objective = negative cost: every addition "improves", so the cap
     is what stops it. *)
  let r = random_mst 2 6 in
  let trace =
    Nontree.Ldrg.run_objective ~max_edges:2
      ~objective:(fun r -> -.Routing.cost r)
      r
  in
  Alcotest.(check int) "two steps" 2 (List.length trace.Nontree.Ldrg.steps);
  Alcotest.(check int) "edges added" 2
    (Graphs.Wgraph.num_edges (Routing.graph trace.Nontree.Ldrg.final)
    - Graphs.Wgraph.num_edges (Routing.graph r))

let test_ldrg_steps_record_objective () =
  let r = random_mst 3 10 in
  let trace = Nontree.Ldrg.run ~model:moment_model ~tech r in
  List.iter
    (fun (s : Nontree.Ldrg.step) ->
      Alcotest.(check bool) "objective decreased" true
        (s.objective_after < s.objective_before);
      Alcotest.(check bool) "cost grew" true (s.cost_after > s.cost_before))
    trace.Nontree.Ldrg.steps;
  Alcotest.(check bool) "evaluations counted" true
    (trace.Nontree.Ldrg.evaluations > 0)

let test_ldrg_routing_after () =
  let r = random_mst 4 10 in
  let trace =
    Nontree.Ldrg.run_objective ~max_edges:3
      ~objective:(fun r -> -.Routing.cost r)
      r
  in
  let base_edges = Graphs.Wgraph.num_edges (Routing.graph r) in
  List.iteri
    (fun k _ ->
      let rk = Nontree.Ldrg.routing_after trace (k + 1) in
      Alcotest.(check int)
        (Printf.sprintf "after %d" (k + 1))
        (base_edges + k + 1)
        (Graphs.Wgraph.num_edges (Routing.graph rk)))
    trace.Nontree.Ldrg.steps;
  (* Beyond the step count: the final routing. *)
  let beyond = Nontree.Ldrg.routing_after trace 99 in
  Alcotest.(check (float 0.0)) "beyond = final"
    (Routing.cost trace.Nontree.Ldrg.final)
    (Routing.cost beyond)

let prop_ldrg_invariants =
  QCheck.Test.make ~name:"LDRG: delay never worse, topology stays sane"
    ~count:20
    QCheck.(pair small_int (int_range 4 12))
    (fun (seed, pins) ->
      let r = random_mst seed pins in
      let trace = Nontree.Ldrg.run ~model:moment_model ~tech r in
      let final = trace.Nontree.Ldrg.final in
      let d0 = Delay.Model.max_delay moment_model ~tech r in
      let d1 = Delay.Model.max_delay moment_model ~tech final in
      d1 <= d0 +. 1e-18
      && Graphs.Wgraph.is_connected (Routing.graph final)
      && Routing.num_vertices final = pins)

let test_ldrg_finds_improvement_somewhere () =
  (* The paper's core claim: for nets of 10+, LDRG usually beats the
     MST. Over a handful of seeds, at least one improvement of > 3 %
     must appear. *)
  let improved = ref 0 in
  for seed = 1 to 8 do
    let r = random_mst (seed * 17) 10 in
    let trace = Nontree.Ldrg.run ~model:moment_model ~tech r in
    let d0 = Delay.Model.max_delay moment_model ~tech r in
    let d1 = Delay.Model.max_delay moment_model ~tech trace.Nontree.Ldrg.final in
    if d1 < 0.97 *. d0 then incr improved
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d/8 nets improved" !improved)
    true (!improved >= 4)

let test_ldrg_spice_oracle_small () =
  (* End-to-end with the real SPICE oracle on a small net. *)
  let r = random_mst 42 6 in
  let model = Delay.Model.Spice Delay.Model.fast_spice in
  let trace = Nontree.Ldrg.run ~max_edges:1 ~model ~tech r in
  let d0 = Delay.Model.max_delay model ~tech r in
  let d1 = Delay.Model.max_delay model ~tech trace.Nontree.Ldrg.final in
  Alcotest.(check bool) "not worse" true (d1 <= d0 +. 1e-15)

let test_ldrg_budgeted_respects_cap () =
  let r = random_mst 5 12 in
  let base_cost = Routing.cost r in
  List.iter
    (fun budget ->
      let trace =
        Nontree.Ldrg.run_budgeted ~max_cost_ratio:budget ~model:moment_model
          ~tech r
      in
      Alcotest.(check bool)
        (Printf.sprintf "cost within %.2fx" budget)
        true
        (Routing.cost trace.Nontree.Ldrg.final <= (budget *. base_cost) +. 1e-6))
    [ 1.0; 1.05; 1.1; 1.3 ]

let test_ldrg_budgeted_monotone () =
  (* A larger budget can only do at least as well: the looser search
     space contains the tighter one's greedy path is NOT guaranteed in
     general for greedy, but the trivial endpoints are: budget 1.0 adds
     nothing; unbounded equals plain LDRG. *)
  let r = random_mst 6 12 in
  let tight =
    Nontree.Ldrg.run_budgeted ~max_cost_ratio:1.0 ~model:moment_model ~tech r
  in
  Alcotest.(check int) "budget 1.0 adds nothing" 0
    (List.length tight.Nontree.Ldrg.steps);
  let unbounded =
    Nontree.Ldrg.run_budgeted ~max_cost_ratio:1e9 ~model:moment_model ~tech r
  in
  let plain = Nontree.Ldrg.run ~model:moment_model ~tech r in
  Alcotest.(check (float 1e-9)) "unbounded = plain"
    (Routing.cost plain.Nontree.Ldrg.final)
    (Routing.cost unbounded.Nontree.Ldrg.final)

let test_ldrg_budgeted_validation () =
  let r = random_mst 7 5 in
  Alcotest.check_raises "ratio < 1"
    (Invalid_argument "Ldrg.run_budgeted: max_cost_ratio not >= 1") (fun () ->
      ignore
        (Nontree.Ldrg.run_budgeted ~max_cost_ratio:0.9 ~model:moment_model
           ~tech r))

(* A nan ratio passes a [< 1] guard, and its nan slack filters out
   every candidate: the search would return its input unscored. *)
let test_ldrg_budgeted_rejects_nan () =
  let r = random_mst 7 5 in
  Alcotest.check_raises "nan ratio"
    (Invalid_argument "Ldrg.run_budgeted: max_cost_ratio not >= 1") (fun () ->
      ignore
        (Nontree.Ldrg.run_budgeted ~max_cost_ratio:Float.nan
           ~model:moment_model ~tech r))

(* Prune ---------------------------------------------------------------- *)

let test_prune_mst_noop () =
  (* Every MST edge is a bridge; nothing is removable. *)
  let r = random_mst 8 10 in
  let trace = Nontree.Prune.run ~model:moment_model ~tech r in
  Alcotest.(check int) "no removals" 0
    (List.length trace.Nontree.Prune.removals);
  Alcotest.(check (float 0.0)) "unchanged" (Routing.cost r)
    (Routing.cost trace.Nontree.Prune.final)

let test_prune_reclaims_redundant_edge () =
  (* Square net with an added diagonal-ish shortcut: after adding a
     much better source wire, some edge should become removable within
     the 0.1% tolerance. Construct explicitly: a long detour edge
     plus a direct shortcut covering the same sink. *)
  let net =
    Net.of_list
      [ Point.origin; Point.make 9000.0 0.0; Point.make 9000.0 1000.0 ]
  in
  (* Path 0-1-2 plus direct 0-2: the 0-1 edge only serves sink 1;
     but edge 1-2 becomes removable for sink 2 if delay tolerates. *)
  let r = Routing.add_edge (Routing.mst_of_net net) 0 2 in
  let trace = Nontree.Prune.run ~model:moment_model ~tech r in
  Alcotest.(check bool) "some removal happened" true
    (trace.Nontree.Prune.removals <> []);
  Alcotest.(check bool) "still connected" true
    (Graphs.Wgraph.is_connected (Routing.graph trace.Nontree.Prune.final));
  Alcotest.(check bool) "cost dropped" true
    (Routing.cost trace.Nontree.Prune.final < Routing.cost r)

let test_prune_respects_tolerance () =
  let r = random_mst 9 10 in
  let ldrg = (Nontree.Ldrg.run ~model:moment_model ~tech r).Nontree.Ldrg.final in
  let d0 = Delay.Model.max_delay moment_model ~tech ldrg in
  let trace = Nontree.Prune.run ~model:moment_model ~tech ldrg in
  let d1 = Delay.Model.max_delay moment_model ~tech trace.Nontree.Prune.final in
  Alcotest.(check bool) "delay within tolerance" true
    (d1 <= d0 *. 1.001 +. 1e-18);
  Alcotest.(check bool) "cost never grows" true
    (Routing.cost trace.Nontree.Prune.final <= Routing.cost ldrg +. 1e-9)

(* Heuristics ---------------------------------------------------------- *)

let test_h1_keeps_mst_when_no_gain () =
  (* Two pins: the only possible edge already exists. *)
  let r = Routing.mst_of_net (Net.of_list [ Point.origin; Point.make 100.0 0.0 ]) in
  let trace = Nontree.Heuristics.h1 ~model:moment_model ~tech r in
  Alcotest.(check int) "no steps" 0 (List.length trace.Nontree.Ldrg.steps)

let test_h1_improves_or_stops () =
  let r = random_mst 11 12 in
  let trace = Nontree.Heuristics.h1 ~model:moment_model ~tech r in
  let d0 = Delay.Model.max_delay moment_model ~tech r in
  let d1 = Delay.Model.max_delay moment_model ~tech trace.Nontree.Ldrg.final in
  Alcotest.(check bool) "never worse" true (d1 <= d0 +. 1e-18);
  (* Every kept edge is source-incident. *)
  List.iter
    (fun (s : Nontree.Ldrg.step) ->
      Alcotest.(check int) "source edge" 0 (fst s.Nontree.Ldrg.edge))
    trace.Nontree.Ldrg.steps

let test_h2_adds_source_edge () =
  let r = random_mst 13 10 in
  match Nontree.Heuristics.h2 ~tech r with
  | r', Some (u, v) ->
      Alcotest.(check int) "from source" 0 u;
      Alcotest.(check bool) "edge present" true
        (Graphs.Wgraph.mem_edge (Routing.graph r') u v);
      Alcotest.(check bool) "cost grew" true (Routing.cost r' > Routing.cost r);
      (* H2 picks the worst Elmore sink. *)
      let delays = Delay.Elmore.delays ~tech r in
      let worst =
        List.fold_left
          (fun w s -> if delays.(s) > delays.(w) then s else w)
          1 (Routing.sinks r)
      in
      Alcotest.(check int) "worst sink" worst v
  | _, None -> Alcotest.fail "expected an edge on a 10-pin net"

let test_h2_none_when_adjacent () =
  let r = Routing.mst_of_net (Net.of_list [ Point.origin; Point.make 100.0 0.0 ]) in
  match Nontree.Heuristics.h2 ~tech r with
  | _, None -> ()
  | _, Some _ -> Alcotest.fail "no edge to add on a 2-pin net"

let test_h3_adds_source_edge () =
  let r = random_mst 14 10 in
  match Nontree.Heuristics.h3 ~tech r with
  | r', Some (u, v) ->
      Alcotest.(check int) "from source" 0 u;
      Alcotest.(check bool) "sink target" true (v >= 1 && v < 10);
      Alcotest.(check bool) "non-tree now" false (Routing.is_tree r')
  | _, None -> Alcotest.fail "expected an edge on a 10-pin net"

let test_h2_h3_unconditional () =
  (* Unlike H1, H2/H3 add their edge even when it hurts: find a net
     where the H2 edge increases first-moment delay and confirm the
     edge is still present. Over several seeds at size 5 (where the
     paper's Table 5 shows average delay ratios above 1.0) at least one
     such case must exist. *)
  let found_worse = ref false in
  for seed = 1 to 12 do
    let r = random_mst (seed * 23) 5 in
    match Nontree.Heuristics.h2 ~tech r with
    | r', Some _ ->
        let d0 = Delay.Model.max_delay moment_model ~tech r in
        let d1 = Delay.Model.max_delay moment_model ~tech r' in
        if d1 > d0 then found_worse := true
    | _, None -> ()
  done;
  Alcotest.(check bool) "H2 sometimes hurts and still applies" true
    !found_worse

(* Critical sink ------------------------------------------------------- *)

let test_critical_sink_vectors () =
  let net = random_net 15 6 in
  Alcotest.(check (array (float 0.0))) "uniform" (Array.make 5 1.0)
    (Nontree.Critical_sink.uniform net);
  let oh = Nontree.Critical_sink.one_hot net ~critical:3 in
  Alcotest.(check (float 0.0)) "hot" 1.0 oh.(2);
  Alcotest.(check (float 0.0)) "cold" 0.0 oh.(0);
  Alcotest.check_raises "bad index"
    (Invalid_argument "Critical_sink.one_hot: not a sink index") (fun () ->
      ignore (Nontree.Critical_sink.one_hot net ~critical:0))

let test_weighted_delay_reduces () =
  let net = random_net 16 10 in
  let r = Routing.mst_of_net net in
  let alphas = Nontree.Critical_sink.uniform net in
  let w0 =
    Nontree.Critical_sink.weighted_delay ~model:moment_model ~tech ~alphas r
  in
  Alcotest.(check bool) "positive" true (w0 > 0.0);
  let trace =
    Nontree.Critical_sink.ldrg ~model:moment_model ~tech ~alphas r
  in
  let w1 =
    Nontree.Critical_sink.weighted_delay ~model:moment_model ~tech ~alphas
      trace.Nontree.Ldrg.final
  in
  Alcotest.(check bool) "never worse" true (w1 <= w0 +. 1e-18)

let test_one_hot_ldrg_targets_sink () =
  (* With a one-hot objective, LDRG minimises that single sink's delay;
     the chosen sink must end up at least as fast as in the MST. *)
  let net = random_net 17 10 in
  let r = Routing.mst_of_net net in
  let critical = 4 in
  let alphas = Nontree.Critical_sink.one_hot net ~critical in
  let trace = Nontree.Critical_sink.ldrg ~model:moment_model ~tech ~alphas r in
  let delay r =
    List.assoc critical (Delay.Model.sink_delays moment_model ~tech r)
  in
  let d_before = delay r and d_after = delay trace.Nontree.Ldrg.final in
  Alcotest.(check bool) "critical sink not slower" true
    (d_after <= d_before +. 1e-18)

(* Wire sizing --------------------------------------------------------- *)

let long_path_net () =
  (* A short source edge feeding a long downstream chain: halving the
     source edge's resistance saves Δr × C_downstream ≈ 32 ps while its
     added capacitance costs only r_d × Δc ≈ 18 ps, so greedy sizing
     must widen it. (With Table 1's 100 Ω driver, widening *long* edges
     loses: the added wire capacitance dominates.) *)
  Net.of_list
    [ Point.origin; Point.make 500.0 0.0; Point.make 6500.0 0.0;
      Point.make 12_500.0 0.0 ]

let test_wire_area () =
  let r = Routing.mst_of_net (long_path_net ()) in
  Alcotest.(check (float 1e-6)) "area = length at width 1" 12_500.0
    (Nontree.Wire_sizing.wire_area r);
  let r' = Routing.set_width r 0 1 2.0 in
  Alcotest.(check (float 1e-6)) "doubling first edge" 13_000.0
    (Nontree.Wire_sizing.wire_area r')

let test_size_greedy_improves () =
  let r = Routing.mst_of_net (long_path_net ()) in
  let model = Delay.Model.Elmore_tree in
  let d0 = Delay.Model.max_delay model ~tech r in
  let sized, changes = Nontree.Wire_sizing.size_greedy ~model ~tech r in
  let d1 = Delay.Model.max_delay model ~tech sized in
  Alcotest.(check bool) "some widening happened" true (changes <> []);
  Alcotest.(check bool) "delay reduced" true (d1 < d0);
  (* The source edge must be among the widened ones. *)
  Alcotest.(check bool) "source edge widened" true
    (Routing.width sized 0 1 > 1.0)

let test_size_greedy_validation () =
  let r = Routing.mst_of_net (long_path_net ()) in
  Alcotest.check_raises "widths must start at 1"
    (Invalid_argument "Wire_sizing: widths must start at 1") (fun () ->
      ignore
        (Nontree.Wire_sizing.size_greedy ~widths:[ 2.0; 3.0 ]
           ~model:Delay.Model.Elmore_tree ~tech r));
  Alcotest.check_raises "widths must increase"
    (Invalid_argument "Wire_sizing: widths must be strictly increasing")
    (fun () ->
      ignore
        (Nontree.Wire_sizing.size_greedy ~widths:[ 1.0; 3.0; 2.0 ]
           ~model:Delay.Model.Elmore_tree ~tech r))

let test_parallel_merge_equivalence () =
  (* Section 5.2: two parallel width-1 wires behave exactly like one
     width-2 wire. Verify with the simulator: an explicitly duplicated
     pi-network matches the width-2 lumped model. *)
  let open Circuit in
  let build ~parallel =
    let nl = Netlist.create () in
    let a = Netlist.node nl "a" in
    let b = Netlist.node nl "b" in
    Netlist.vsource nl a Netlist.ground
      (Waveform.Step { t0 = 0.0; v0 = 0.0; v1 = 1.0 });
    let drv = Netlist.node nl "drv" in
    Netlist.resistor nl ~name:"Rd" a drv 100.0;
    let r_wire = 60.0 and c_wire = 0.7e-12 in
    if parallel then begin
      (* Two identical RC pi wires drv->b. *)
      Netlist.resistor nl ~name:"Rw1" drv b r_wire;
      Netlist.resistor nl ~name:"Rw2" drv b r_wire;
      Netlist.capacitor nl ~name:"Cw1a" drv Netlist.ground (c_wire /. 2.0);
      Netlist.capacitor nl ~name:"Cw1b" b Netlist.ground (c_wire /. 2.0);
      Netlist.capacitor nl ~name:"Cw2a" drv Netlist.ground (c_wire /. 2.0);
      Netlist.capacitor nl ~name:"Cw2b" b Netlist.ground (c_wire /. 2.0)
    end
    else begin
      (* One width-2 wire: half resistance, double capacitance. *)
      Netlist.resistor nl ~name:"Rw" drv b (r_wire /. 2.0);
      Netlist.capacitor nl ~name:"Cwa" drv Netlist.ground c_wire;
      Netlist.capacitor nl ~name:"Cwb" b Netlist.ground c_wire
    end;
    Netlist.capacitor nl ~name:"Cl" b Netlist.ground 15.3e-15;
    nl
  in
  let delay nl =
    match
      Spice.Engine.threshold_delays_result nl ~probes:[ "b" ] ~horizon:1e-9
    with
    | Ok [ (_, Some t) ] -> t
    | _ -> Alcotest.fail "no crossing"
  in
  let t_par = delay (build ~parallel:true) in
  let t_wide = delay (build ~parallel:false) in
  Alcotest.(check bool)
    (Printf.sprintf "parallel %.4g = wide %.4g" t_par t_wide)
    true
    (abs_float (t_par -. t_wide) /. t_wide < 1e-9)

(* Stats --------------------------------------------------------------- *)

let s d c = { Nontree.Stats.delay_ratio = d; cost_ratio = c }

let test_stats_summarize () =
  let row = Nontree.Stats.summarize [ s 0.8 1.2; s 1.0 1.0; s 0.9 1.1; s 1.1 1.3 ] in
  Alcotest.(check int) "n" 4 row.Nontree.Stats.n;
  Alcotest.(check (float 1e-9)) "all delay" 0.95 row.Nontree.Stats.all_delay;
  Alcotest.(check (float 1e-9)) "all cost" 1.15 row.Nontree.Stats.all_cost;
  Alcotest.(check (float 1e-9)) "pct" 50.0 row.Nontree.Stats.pct_winners;
  (match row.Nontree.Stats.win_delay with
  | Some d -> Alcotest.(check (float 1e-9)) "winners delay" 0.85 d
  | None -> Alcotest.fail "expected winners");
  match row.Nontree.Stats.win_cost with
  | Some c -> Alcotest.(check (float 1e-9)) "winners cost" 1.15 c
  | None -> Alcotest.fail "expected winners"

let test_stats_no_winners () =
  let row = Nontree.Stats.summarize [ s 1.0 1.0; s 1.2 1.5 ] in
  Alcotest.(check (float 0.0)) "pct 0" 0.0 row.Nontree.Stats.pct_winners;
  Alcotest.(check bool) "NA" true (row.Nontree.Stats.win_delay = None);
  let str = Format.asprintf "%a" Nontree.Stats.pp_row row in
  let contains_na s =
    let n = String.length s in
    let rec scan i = i + 2 <= n && (String.sub s i 2 = "NA" || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "prints NA" true (contains_na str)

let test_stats_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: no samples")
    (fun () -> ignore (Nontree.Stats.summarize []))

(* Experiment ----------------------------------------------------------- *)

let small_config =
  { Nontree.Experiment.default with
    trials = 4;
    sizes = [ 5 ];
    eval_model = moment_model;
    search_model = moment_model }

let test_experiment_nets_reproducible () =
  let a = Nontree.Experiment.nets small_config ~size:5 in
  let b = Nontree.Experiment.nets small_config ~size:5 in
  Alcotest.(check int) "count" 4 (Array.length a);
  Array.iteri
    (fun i net ->
      Alcotest.(check bool) "same pins" true (Net.pins net = Net.pins b.(i)))
    a

let test_experiment_sample () =
  let net = random_net 18 8 in
  let mst = Routing.mst_of_net net in
  let trace = Nontree.Ldrg.run ~model:moment_model ~tech mst in
  let sample =
    Nontree.Experiment.sample small_config ~baseline:mst
      ~routing:trace.Nontree.Ldrg.final
  in
  Alcotest.(check bool) "delay ratio <= 1" true
    (sample.Nontree.Stats.delay_ratio <= 1.0 +. 1e-9);
  Alcotest.(check bool) "cost ratio >= 1" true
    (sample.Nontree.Stats.cost_ratio >= 1.0 -. 1e-9)

let suites =
  [ ( "nontree",
      [ Alcotest.test_case "ldrg stops without gain" `Quick
          test_ldrg_no_improvement_possible;
        Alcotest.test_case "ldrg max_edges" `Quick test_ldrg_max_edges_cap;
        Alcotest.test_case "ldrg step records" `Quick
          test_ldrg_steps_record_objective;
        Alcotest.test_case "ldrg routing_after" `Quick test_ldrg_routing_after;
        QCheck_alcotest.to_alcotest prop_ldrg_invariants;
        Alcotest.test_case "ldrg finds improvements" `Quick
          test_ldrg_finds_improvement_somewhere;
        Alcotest.test_case "ldrg spice oracle" `Quick
          test_ldrg_spice_oracle_small;
        Alcotest.test_case "ldrg budgeted cap" `Quick
          test_ldrg_budgeted_respects_cap;
        Alcotest.test_case "ldrg budgeted endpoints" `Quick
          test_ldrg_budgeted_monotone;
        Alcotest.test_case "ldrg budgeted validation" `Quick
          test_ldrg_budgeted_validation;
        Alcotest.test_case "ldrg budgeted rejects nan ratio" `Quick
          test_ldrg_budgeted_rejects_nan;
        Alcotest.test_case "prune mst noop" `Quick test_prune_mst_noop;
        Alcotest.test_case "prune reclaims edge" `Quick
          test_prune_reclaims_redundant_edge;
        Alcotest.test_case "prune tolerance" `Quick test_prune_respects_tolerance;
        Alcotest.test_case "h1 keeps mst" `Quick test_h1_keeps_mst_when_no_gain;
        Alcotest.test_case "h1 improves or stops" `Quick
          test_h1_improves_or_stops;
        Alcotest.test_case "h2 adds source edge" `Quick test_h2_adds_source_edge;
        Alcotest.test_case "h2 none when adjacent" `Quick
          test_h2_none_when_adjacent;
        Alcotest.test_case "h3 adds source edge" `Quick test_h3_adds_source_edge;
        Alcotest.test_case "h2/h3 unconditional" `Quick test_h2_h3_unconditional;
        Alcotest.test_case "critical sink vectors" `Quick
          test_critical_sink_vectors;
        Alcotest.test_case "weighted delay reduces" `Quick
          test_weighted_delay_reduces;
        Alcotest.test_case "one-hot ldrg targets sink" `Quick
          test_one_hot_ldrg_targets_sink;
        Alcotest.test_case "wire area" `Quick test_wire_area;
        Alcotest.test_case "size greedy improves" `Quick
          test_size_greedy_improves;
        Alcotest.test_case "size greedy validation" `Quick
          test_size_greedy_validation;
        Alcotest.test_case "parallel merge equivalence" `Quick
          test_parallel_merge_equivalence;
        Alcotest.test_case "stats summarize" `Quick test_stats_summarize;
        Alcotest.test_case "stats no winners" `Quick test_stats_no_winners;
        Alcotest.test_case "stats empty" `Quick test_stats_empty_rejected;
        Alcotest.test_case "experiment nets reproducible" `Quick
          test_experiment_nets_reproducible;
        Alcotest.test_case "experiment sample" `Quick test_experiment_sample
      ] ) ]
