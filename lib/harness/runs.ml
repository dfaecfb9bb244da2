type config = Nontree.Experiment.config

let log_src =
  Logs.Src.create "nontree.harness" ~doc:"Per-net fault containment"

module Log = (val Logs.src_log log_src)

(* A net whose evaluation still fails after every retry and fallback is
   dropped from the table rather than aborting the whole run. *)
let protect_net ~what f =
  match Nontree_error.protect f with
  | Ok v -> Some v
  | Error e ->
      Nontree_error.Counters.incr_dropped_nets ();
      Log.warn (fun m ->
          m "dropping net (%s): %s" what (Nontree_error.to_string e));
      None

let robustness_summary () =
  if Nontree_error.Counters.any () then
    Some (Nontree_error.Counters.summary ())
  else None

(* Every table/figure/extension entry point opens one pool sized by the
   config and fans the per-net work out over it; nested Pool.map calls
   (candidate scoring inside Ldrg.run) share the same workers. With
   [jobs = 1] the pool is a plain List.map and the sequential code path
   is untouched. *)
let with_pool config f =
  Pool.with_pool ~jobs:config.Nontree.Experiment.jobs f

(* Fan [f] over the nets, in net order, dropping failed nets. Results
   come back in submission order, so aggregation (and float summation)
   order matches the sequential run for any worker count. *)
let map_nets pool ~what f nets =
  List.filter_map Fun.id
    (Pool.map pool (fun net -> protect_net ~what (fun () -> f net))
       (Array.to_list nets))

let unit_sample = { Nontree.Stats.delay_ratio = 1.0; cost_ratio = 1.0 }

let table1 config =
  Obs.span "harness.table1" @@ fun () ->
  Format.asprintf
    "Table 1: SPICE model parameters (0.8 um CMOS)@\n%a@."
    Circuit.Technology.pp config.Nontree.Experiment.tech

(* Per-iteration aggregation ------------------------------------------- *)

let iteration_labels = [ "Iteration One"; "Iteration Two" ]
let iterations = List.length iteration_labels

(* For each net: samples.(k) = effect of edge k+1 relative to the
   routing after k edges; reached.(k) says whether the greedy loop
   actually added that edge. *)
let iteration_samples config (trace : Nontree.Ldrg.trace) =
  let steps = List.length trace.Nontree.Ldrg.steps in
  Array.init iterations (fun i ->
      let k = i + 1 in
      if steps >= k then
        ( Nontree.Experiment.sample config
            ~baseline:(Nontree.Ldrg.routing_after trace (k - 1))
            ~routing:(Nontree.Ldrg.routing_after trace k),
          true )
      else (unit_sample, false))

(* One summary per iteration, [None] when no net reached it. *)
let iteration_rows traces =
  Array.init iterations (fun i ->
      let per_net = List.map (fun a -> a.(i)) traces in
      if List.exists snd per_net then
        Some (Nontree.Stats.summarize (List.map fst per_net))
      else None)

(* Rows label by label, so each iteration block lists every size. *)
let per_iteration_table config ~algorithm =
  with_pool config (fun pool ->
      let by_size =
        List.map
          (fun size ->
            let nets = Nontree.Experiment.nets config ~size in
            ( size,
              iteration_rows
                (map_nets pool ~what:(Printf.sprintf "size %d" size)
                   (fun net -> iteration_samples config (algorithm pool net))
                   nets) ))
          config.Nontree.Experiment.sizes
      in
      List.concat
        (List.mapi
           (fun i label ->
             List.map
               (fun (size, rows) -> { Table.label; size; row = rows.(i) })
               by_size)
           iteration_labels))

let simple_table config ~algorithm =
  with_pool config (fun pool ->
      List.map
        (fun size ->
          let nets = Nontree.Experiment.nets config ~size in
          let samples =
            map_nets pool ~what:(Printf.sprintf "size %d" size)
              (fun net ->
                let baseline, routing = algorithm pool net in
                Nontree.Experiment.sample config ~baseline ~routing)
              nets
          in
          let row =
            if samples = [] then None
            else Some (Nontree.Stats.summarize samples)
          in
          { Table.label = ""; size; row })
        config.Nontree.Experiment.sizes)

(* Tables --------------------------------------------------------------- *)

let table2 config =
  Obs.span "harness.table2" @@ fun () ->
  per_iteration_table config
    ~algorithm:(fun pool net ->
      Nontree.Ldrg.run ~pool ~model:config.Nontree.Experiment.search_model
        ~tech:config.Nontree.Experiment.tech
        (Routing.mst_of_net net))

let table3 config =
  Obs.span "harness.table3" @@ fun () ->
  simple_table config ~algorithm:(fun pool net ->
      let trace =
        Nontree.Sldrg.run ~pool ~model:config.Nontree.Experiment.search_model
          ~tech:config.Nontree.Experiment.tech net
      in
      (trace.Nontree.Ldrg.initial, trace.Nontree.Ldrg.final))

let table4 config =
  Obs.span "harness.table4" @@ fun () ->
  per_iteration_table config
    ~algorithm:(fun _pool net ->
      (* H1 adds at most one predetermined edge per iteration — nothing
         to score in parallel; its speedup comes from the per-net
         fan-out and the oracle cache. *)
      Nontree.Heuristics.h1 ~model:config.Nontree.Experiment.search_model
        ~tech:config.Nontree.Experiment.tech
        (Routing.mst_of_net net))

let table5 config =
  Obs.span "harness.table5" @@ fun () ->
  let run h =
    simple_table config ~algorithm:(fun _pool net ->
        let mst = Routing.mst_of_net net in
        let routed, _ = h ~tech:config.Nontree.Experiment.tech mst in
        (mst, routed))
  in
  (run Nontree.Heuristics.h2, run Nontree.Heuristics.h3)

let table6 config =
  Obs.span "harness.table6" @@ fun () ->
  simple_table config ~algorithm:(fun _pool net ->
      ( Routing.mst_of_net net,
        Ert.construct ~tech:config.Nontree.Experiment.tech net ))

let table7 config =
  Obs.span "harness.table7" @@ fun () ->
  simple_table config ~algorithm:(fun pool net ->
      let ert = Ert.construct ~tech:config.Nontree.Experiment.tech net in
      let trace =
        Nontree.Ldrg.run ~pool ~model:config.Nontree.Experiment.search_model
          ~tech:config.Nontree.Experiment.tech ert
      in
      (ert, trace.Nontree.Ldrg.final))

(* Figures --------------------------------------------------------------- *)

type figure = {
  id : string;
  description : string;
  net_size : int;
  base_delay : float;
  base_cost : float;
  final_delay : float;
  final_cost : float;
  stages : (float * float) list;
  before : Routing.t;
  after : Routing.t;
  added : (int * int) list;
}

let figure_of_trace config ~id ~description (trace : Nontree.Ldrg.trace) =
  let measure =
    Nontree.Eval.measure ~model:config.Nontree.Experiment.eval_model
      ~tech:config.Nontree.Experiment.tech
  in
  let base = measure trace.Nontree.Ldrg.initial in
  let final = measure trace.Nontree.Ldrg.final in
  let stages =
    List.mapi
      (fun k _ ->
        let r = Nontree.Ldrg.routing_after trace (k + 1) in
        let m = measure r in
        (m.Nontree.Eval.delay, m.Nontree.Eval.cost))
      trace.Nontree.Ldrg.steps
  in
  { id;
    description;
    net_size = Routing.num_terminals trace.Nontree.Ldrg.initial;
    base_delay = base.Nontree.Eval.delay;
    base_cost = base.Nontree.Eval.cost;
    final_delay = final.Nontree.Eval.delay;
    final_cost = final.Nontree.Eval.cost;
    stages;
    before = trace.Nontree.Ldrg.initial;
    after = trace.Nontree.Ldrg.final;
    added = List.map (fun s -> s.Nontree.Ldrg.edge) trace.Nontree.Ldrg.steps }

(* Deterministic search over the config's net stream for the most
   figure-worthy instance. *)
let search_nets config ~size ~scan ~score =
  with_pool config (fun pool ->
      let nets =
        Nontree.Experiment.nets { config with trials = scan } ~size
      in
      (* Score every net (in parallel), then pick the winner with the
         same earliest-on-ties fold the sequential scan used. *)
      let scored =
        Pool.map pool
          (fun net ->
            protect_net ~what:"figure search" (fun () -> score pool net))
          (Array.to_list nets)
      in
      let best =
        List.fold_left
          (fun best result ->
            match result with
            | None | Some None -> best
            | Some (Some (s, payload)) -> (
                match best with
                | Some (s', _) when s' <= s -> best
                | _ -> Some (s, payload)))
          None scored
      in
      match best with
      | Some (_, payload) -> payload
      | None -> failwith "Runs: figure search found no instance")

let single_edge_figure config ~id ~size ~scan ~description =
  search_nets config ~size ~scan ~score:(fun pool net ->
      let mst = Routing.mst_of_net net in
      let trace =
        Nontree.Ldrg.run ~pool ~max_edges:1
          ~model:config.Nontree.Experiment.search_model
          ~tech:config.Nontree.Experiment.tech mst
      in
      match trace.Nontree.Ldrg.steps with
      | [] -> None
      | s :: _ ->
          let ratio = s.objective_after /. s.objective_before in
          let cost_ratio = s.cost_after /. s.cost_before in
          (* Prefer the paper's headline shape: a big delay win bought
             with little extra wire. *)
          let score = ratio +. Float.max 0.0 (cost_ratio -. 1.15) in
          Some (score, figure_of_trace config ~id ~description trace))

let figure1 config =
  Obs.span "harness.figure1" @@ fun () ->
  single_edge_figure config ~id:"Figure 1" ~size:4 ~scan:80
    ~description:
      "adding one extra edge to a 4-pin MST trades a small wirelength \
       increase for a large SPICE delay reduction"

let figure2 config =
  Obs.span "harness.figure2" @@ fun () ->
  single_edge_figure config ~id:"Figure 2" ~size:10 ~scan:20
    ~description:
      "a random 10-pin net where a single extra edge substantially \
       reduces SPICE delay"

let figure3 config =
  Obs.span "harness.figure3" @@ fun () ->
  search_nets config ~size:10 ~scan:20 ~score:(fun pool net ->
      let mst = Routing.mst_of_net net in
      let trace =
        Nontree.Ldrg.run ~pool ~model:config.Nontree.Experiment.search_model
          ~tech:config.Nontree.Experiment.tech mst
      in
      if List.length trace.Nontree.Ldrg.steps < 2 then None
      else begin
        let last =
          List.nth trace.Nontree.Ldrg.steps
            (List.length trace.Nontree.Ldrg.steps - 1)
        in
        let first = List.hd trace.Nontree.Ldrg.steps in
        Some
          ( last.objective_after /. first.objective_before,
            figure_of_trace config ~id:"Figure 3"
              ~description:
                "an LDRG execution that adds two or more edges, showing \
                 the per-iteration delay/wirelength trajectory"
              trace )
      end)

let figure5 config =
  Obs.span "harness.figure5" @@ fun () ->
  search_nets config ~size:10 ~scan:12 ~score:(fun pool net ->
      let trace =
        Nontree.Sldrg.run ~pool ~model:config.Nontree.Experiment.search_model
          ~tech:config.Nontree.Experiment.tech net
      in
      match trace.Nontree.Ldrg.steps with
      | [] -> None
      | _ ->
          let final = List.nth trace.Nontree.Ldrg.steps
              (List.length trace.Nontree.Ldrg.steps - 1) in
          let first = List.hd trace.Nontree.Ldrg.steps in
          Some
            ( final.objective_after /. first.objective_before,
              figure_of_trace config ~id:"Figure 5"
                ~description:
                  "SLDRG: the greedy loop applied to an Iterated-1-Steiner \
                   tree (squares are Steiner points)"
                trace ))

let render_figure f =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "%s: %s\n" f.id f.description);
  Buffer.add_string buf
    (Printf.sprintf "  net size: %d pins; baseline delay %.2f ns, wirelength %.0f um\n"
       f.net_size (f.base_delay *. 1e9) f.base_cost);
  List.iteri
    (fun i (d, c) ->
      Buffer.add_string buf
        (Printf.sprintf
           "  after edge %d (%s): delay %.2f ns (%+.1f%%), wirelength %.0f um (%+.1f%%)\n"
           (i + 1)
           (let u, v = List.nth f.added i in
            Printf.sprintf "%d-%d" u v)
           (d *. 1e9)
           (100.0 *. ((d /. f.base_delay) -. 1.0))
           c
           (100.0 *. ((c /. f.base_cost) -. 1.0))))
    f.stages;
  Buffer.add_string buf
    (Printf.sprintf
       "  final: delay %.2f ns (%.1f%% improvement), wirelength %.0f um (%.1f%% penalty)\n"
       (f.final_delay *. 1e9)
       (100.0 *. (1.0 -. (f.final_delay /. f.base_delay)))
       f.final_cost
       (100.0 *. ((f.final_cost /. f.base_cost) -. 1.0)));
  Buffer.contents buf

exception Svg_unwritable of string

let writing_svg f = try f () with Sys_error msg -> raise (Svg_unwritable msg)

let ensure_svg_dir dir =
  writing_svg (fun () -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755);
  if not (Sys.is_directory dir) then
    raise (Svg_unwritable (dir ^ ": Not a directory"))

let save_figure_svgs ~dir f =
  let slug =
    String.map (fun c -> if c = ' ' then '_' else Char.lowercase_ascii c) f.id
  in
  let before_path = Filename.concat dir (slug ^ "_before.svg") in
  let after_path = Filename.concat dir (slug ^ "_after.svg") in
  writing_svg (fun () ->
      Routing_svg.render_to_file ~title:(f.id ^ " (before)") before_path
        f.before;
      Routing_svg.render_to_file ~title:(f.id ^ " (after)") ~highlight:f.added
        after_path f.after);
  [ before_path; after_path ]

(* Extensions ------------------------------------------------------------ *)

(* [map_nets]'s per-net results, each the report's fields as a list,
   read as columns: [columns rows i] is field [i] of every kept net, in
   net order. A yes/no field holds 1.0 for yes, so its [sum] counts. *)
let columns rows i = List.map (fun row -> List.nth row i) rows

(* Summed from the last net to the first, the order these reports have
   always summed in: the printed digits depend on it. *)
let sum l = List.fold_left ( +. ) 0.0 (List.rev l)
let mean l = sum l /. float_of_int (List.length l)

(* [mean] of an empty list is 0/0 = nan; when fault injection drops
   every net of an extension experiment, say so instead of printing
   "nan". [%.*f] renders non-empty means byte-identically to the
   inline [%.Nf] formats these reports used. *)
let mean_fmt ?(decimals = 3) l =
  if l = [] then "n/a (all nets dropped)"
  else Printf.sprintf "%.*f" decimals (mean l)

let ext_csorg config =
  Obs.span "harness.ext_csorg" @@ fun () ->
  with_pool config @@ fun pool ->
  let tech = config.Nontree.Experiment.tech in
  let size = 10 in
  let nets = Nontree.Experiment.nets config ~size in
  let search = Delay.Model.First_moment in
  let spice_sink_delay r v =
    List.assoc v
      (Nontree.Oracle.Cache.sink_delays
         ~model:config.Nontree.Experiment.eval_model ~tech r)
  in
  let col =
    columns
      (map_nets pool ~what:"ext csorg"
         (fun net ->
           (* The critical sink: farthest pin from the source. *)
           let src = Geom.Net.source net in
           let critical = ref 1 in
           for v = 2 to Geom.Net.num_sinks net do
             if
               Geom.Point.manhattan src (Geom.Net.pin net v)
               > Geom.Point.manhattan src (Geom.Net.pin net !critical)
             then critical := v
           done;
           let critical = !critical in
           let alphas = Nontree.Critical_sink.one_hot net ~critical in
           let mst = Routing.mst_of_net net in
           let base = spice_sink_delay mst critical in
           let ldrg =
             (Nontree.Ldrg.run ~pool ~model:search ~tech mst).Nontree.Ldrg.final
           in
           let cs =
             (Nontree.Critical_sink.ldrg ~pool ~model:search ~tech ~alphas mst)
               .Nontree.Ldrg.final
           in
           let ert_w = Nontree.Critical_sink.ert_seed ~tech ~alphas net in
           let sert = Ert.construct_critical ~tech ~critical net in
           [ spice_sink_delay ldrg critical /. base;
             spice_sink_delay cs critical /. base;
             spice_sink_delay ert_w critical /. base;
             spice_sink_delay sert critical /. base;
             Routing.cost cs /. Routing.cost mst ])
         nets)
  in
  Printf.sprintf
    "Extension X1 -- CSORG, critical-sink routing (Section 5.1)\n\
    \  %d nets of %d pins; criticality one-hot on the farthest sink;\n\
    \  values are that sink's SPICE delay normalised to the MST.\n\
    \    plain LDRG (max objective)   : %s\n\
    \    critical-sink LDRG           : %s   (cost ratio %s)\n\
    \    criticality-weighted ERT     : %s\n\
    \    SERT-C (direct first wire)   : %s\n"
    (Array.length nets) size (mean_fmt (col 0)) (mean_fmt (col 1))
    (mean_fmt ~decimals:2 (col 4))
    (mean_fmt (col 2)) (mean_fmt (col 3))

let ext_wsorg config =
  Obs.span "harness.ext_wsorg" @@ fun () ->
  with_pool config @@ fun pool ->
  let tech = config.Nontree.Experiment.tech in
  let size = 10 in
  let nets = Nontree.Experiment.nets config ~size in
  let search = Delay.Model.First_moment in
  let delay =
    Nontree.Oracle.Cache.max_delay ~model:config.Nontree.Experiment.eval_model
      ~tech
  in
  let col =
    columns
      (map_nets pool ~what:"ext wsorg"
         (fun net ->
           let mst = Routing.mst_of_net net in
           let base_delay = delay mst in
           let base_len = Routing.cost mst in
           let sized, _ =
             Nontree.Wire_sizing.size_greedy ~model:search ~tech mst
           in
           let ldrg =
             (Nontree.Ldrg.run ~pool ~model:search ~tech mst).Nontree.Ldrg.final
           in
           let both, _ =
             Nontree.Wire_sizing.size_greedy ~model:search ~tech ldrg
           in
           [ delay sized /. base_delay;
             delay ldrg /. base_delay;
             delay both /. base_delay;
             Nontree.Wire_sizing.wire_area sized /. base_len;
             Nontree.Wire_sizing.wire_area both /. base_len ])
         nets)
  in
  Printf.sprintf
    "Extension X2 -- WSORG, wire sizing (Section 5.2)\n\
    \  %d nets of %d pins; widths in {1,2,3}; SPICE delay vs MST, silicon\n\
    \  area (sum of length x width) vs MST wirelength.\n\
    \    MST + greedy sizing          : delay %s, area %s\n\
    \    LDRG graph                   : delay %s\n\
    \    LDRG + greedy sizing         : delay %s, area %s\n"
    (Array.length nets) size (mean_fmt (col 0))
    (mean_fmt ~decimals:2 (col 3))
    (mean_fmt (col 1)) (mean_fmt (col 2))
    (mean_fmt ~decimals:2 (col 4))

let ext_oracle config =
  Obs.span "harness.ext_oracle" @@ fun () ->
  with_pool config @@ fun pool ->
  let tech = config.Nontree.Experiment.tech in
  let oracles =
    [ ("first moment", Delay.Model.First_moment);
      ("two-pole", Delay.Model.Two_pole);
      ("fast SPICE", Delay.Model.Spice Delay.Model.fast_spice) ]
  in
  let blocks =
    List.map
      (fun size ->
        let nets = Nontree.Experiment.nets config ~size in
        let lines =
          List.map
            (fun (name, oracle) ->
              let col =
                columns
                  (map_nets pool ~what:"ext oracle"
                     (fun net ->
                       let mst = Routing.mst_of_net net in
                       let trace =
                         Nontree.Ldrg.run ~pool ~model:oracle ~tech mst
                       in
                       let s =
                         Nontree.Experiment.sample config ~baseline:mst
                           ~routing:trace.Nontree.Ldrg.final
                       in
                       [ s.Nontree.Stats.delay_ratio;
                         s.Nontree.Stats.cost_ratio;
                         float_of_int trace.Nontree.Ldrg.evaluations ])
                     nets)
              in
              Printf.sprintf
                "    %-14s: delay %s, cost %s, oracle calls %s" name
                (mean_fmt (col 0))
                (mean_fmt ~decimals:2 (col 1))
                (mean_fmt ~decimals:0 (col 2)))
            oracles
        in
        Printf.sprintf "  size %d (%d nets):\n%s" size (Array.length nets)
          (String.concat "\n" lines))
      [ 10; 20 ]
  in
  Printf.sprintf
    "Extension X3 -- oracle fidelity inside LDRG (SPICE-evaluated)\n%s\n"
    (String.concat "\n" blocks)

let ext_rlc config =
  Obs.span "harness.ext_rlc" @@ fun () ->
  with_pool config @@ fun pool ->
  let tech = config.Nontree.Experiment.tech in
  let size = 10 in
  let nets = Nontree.Experiment.nets config ~size in
  let rc = Delay.Model.Spice Delay.Model.default_spice in
  let rlc = Delay.Model.Spice Delay.Model.rlc_spice in
  let col =
    columns
      (map_nets pool ~what:"ext rlc"
         (fun net ->
           let mst = Routing.mst_of_net net in
           let graph =
             (Nontree.Ldrg.run ~pool
                ~model:config.Nontree.Experiment.search_model ~tech mst)
               .Nontree.Ldrg.final
           in
           let d model = Nontree.Oracle.Cache.max_delay ~model ~tech in
           let mst_rc = d rc mst and mst_rlc = d rlc mst in
           let g_rc = d rc graph and g_rlc = d rlc graph in
           [ mst_rlc /. mst_rc;
             g_rlc /. g_rc;
             Bool.to_float (g_rc < mst_rc = (g_rlc < mst_rlc)) ])
         nets)
  in
  Printf.sprintf
    "Extension X4 -- RC vs RLC evaluation (Table 1 inductance, 492 fH/um)\n\
    \  %d nets of %d pins.\n\
    \    RLC/RC delay ratio, MST topologies  : %s\n\
    \    RLC/RC delay ratio, LDRG topologies : %s\n\
    \    LDRG-vs-MST winner agreement        : %d/%d nets\n"
    (Array.length nets) size
    (mean_fmt ~decimals:5 (col 0))
    (mean_fmt ~decimals:5 (col 1))
    (int_of_float (sum (col 2)))
    (List.length (col 2))

let ext_trees config =
  Obs.span "harness.ext_trees" @@ fun () ->
  with_pool config @@ fun pool ->
  let tech = config.Nontree.Experiment.tech in
  let measure =
    Nontree.Eval.measure ~model:config.Nontree.Experiment.eval_model ~tech
  in
  let size = 10 in
  let nets = Nontree.Experiment.nets config ~size in
  let seeds =
    [ ("MST", fun net -> Routing.mst_of_net net);
      ("PD (c=0.5)", fun net -> Trees.Pd.construct ~c:0.5 net);
      ("BRBC (eps=0.5)", fun net -> Trees.Brbc.construct ~epsilon:0.5 net);
      ("ERT", fun net -> Ert.construct ~tech net) ]
  in
  let lines =
    List.map
      (fun (name, build) ->
        let col =
          columns
            (map_nets pool ~what:"ext trees"
               (fun net ->
                 let mst = Routing.mst_of_net net in
                 let base = measure mst in
                 let seed_tree = build net in
                 let sm = measure seed_tree in
                 let trace =
                   Nontree.Ldrg.run ~pool
                     ~model:config.Nontree.Experiment.search_model ~tech
                     seed_tree
                 in
                 let fm = measure trace.Nontree.Ldrg.final in
                 [ sm.Nontree.Eval.delay /. base.Nontree.Eval.delay;
                   sm.Nontree.Eval.cost /. base.Nontree.Eval.cost;
                   fm.Nontree.Eval.delay /. sm.Nontree.Eval.delay;
                   Bool.to_float
                     (fm.Nontree.Eval.delay
                     < sm.Nontree.Eval.delay *. (1.0 -. 1e-9)) ])
               nets)
        in
        Printf.sprintf
          "    %-15s delay %s cost %s (vs MST) | LDRG on it: x%s delay, wins %d/%d"
          name (mean_fmt (col 0))
          (mean_fmt ~decimals:2 (col 1))
          (mean_fmt (col 2))
          (int_of_float (sum (col 3)))
          (Array.length nets))
      seeds
  in
  Printf.sprintf
    "Extension X5 -- LDRG on different starting trees (%d nets of %d pins)\n%s\n"
    (Array.length nets) size
    (String.concat "\n" lines)

let ext_budget config =
  Obs.span "harness.ext_budget" @@ fun () ->
  with_pool config @@ fun pool ->
  let tech = config.Nontree.Experiment.tech in
  let size = 10 in
  let nets = Nontree.Experiment.nets config ~size in
  let budgets = [ 1.05; 1.1; 1.2; 1.5; infinity ] in
  let lines =
    List.map
      (fun budget ->
        let col =
          columns
            (map_nets pool ~what:"ext budget"
               (fun net ->
                 let mst = Routing.mst_of_net net in
                 let trace =
                   if budget = infinity then
                     Nontree.Ldrg.run ~pool
                       ~model:config.Nontree.Experiment.search_model ~tech mst
                   else
                     Nontree.Ldrg.run_budgeted ~pool ~max_cost_ratio:budget
                       ~model:config.Nontree.Experiment.search_model ~tech mst
                 in
                 let s =
                   Nontree.Experiment.sample config ~baseline:mst
                     ~routing:trace.Nontree.Ldrg.final
                 in
                 [ s.Nontree.Stats.delay_ratio; s.Nontree.Stats.cost_ratio ])
               nets)
        in
        Printf.sprintf "    budget %-8s delay %s, cost %s"
          (if budget = infinity then "inf" else Printf.sprintf "%.2fx" budget)
          (mean_fmt (col 0)) (mean_fmt (col 1)))
      budgets
  in
  Printf.sprintf
    "Extension X6 -- wirelength-budgeted LDRG (%d nets of %d pins)\n\
    \  candidate wires are admitted only while total wirelength stays\n\
    \  within the budget times the MST wirelength.\n%s\n"
    (Array.length nets) size
    (String.concat "\n" lines)

let ext_prune config =
  Obs.span "harness.ext_prune" @@ fun () ->
  with_pool config @@ fun pool ->
  let tech = config.Nontree.Experiment.tech in
  let measure =
    Nontree.Eval.measure ~model:config.Nontree.Experiment.eval_model ~tech
  in
  let size = 10 in
  let nets = Nontree.Experiment.nets config ~size in
  let search = config.Nontree.Experiment.search_model in
  let col =
    columns
      (map_nets pool ~what:"ext prune"
         (fun net ->
           let mst = Routing.mst_of_net net in
           let base = measure mst in
           let ldrg =
             (Nontree.Ldrg.run ~pool ~model:search ~tech mst).Nontree.Ldrg.final
           in
           let prune = Nontree.Prune.run ~model:search ~tech ldrg in
           let lm = measure ldrg in
           let pm = measure prune.Nontree.Prune.final in
           [ lm.Nontree.Eval.delay /. base.Nontree.Eval.delay;
             lm.Nontree.Eval.cost /. base.Nontree.Eval.cost;
             pm.Nontree.Eval.delay /. base.Nontree.Eval.delay;
             pm.Nontree.Eval.cost /. base.Nontree.Eval.cost;
             float_of_int (List.length prune.Nontree.Prune.removals) ])
         nets)
  in
  Printf.sprintf
    "Extension X7 -- delay-preserving pruning after LDRG (%d nets of %d pins)\n\
    \  remove edges while the delay stays within 0.1%%; vs MST.\n\
    \    LDRG            : delay %s, cost %s\n\
    \    LDRG + prune    : delay %s, cost %s  (%s edges removed/net)\n"
    (Array.length nets) size (mean_fmt (col 0)) (mean_fmt (col 1))
    (mean_fmt (col 2)) (mean_fmt (col 3))
    (mean_fmt ~decimals:1 (col 4))

let ext_sensitivity config =
  Obs.span "harness.ext_sensitivity" @@ fun () ->
  with_pool config @@ fun pool ->
  let size = 10 in
  let nets = Nontree.Experiment.nets config ~size in
  let base_tech = config.Nontree.Experiment.tech in
  (* Vary the driver strength: strong drivers make wire resistance the
     bottleneck (extra wires pay); weak drivers make total capacitance
     the bottleneck (extra wires hurt). *)
  let drivers = [ 25.0; 50.0; 100.0; 200.0; 400.0; 800.0 ] in
  let lines =
    List.map
      (fun rd ->
        let tech = { base_tech with Circuit.Technology.driver_resistance = rd } in
        let local = { config with Nontree.Experiment.tech = tech } in
        let col =
          columns
            (map_nets pool ~what:"ext sensitivity"
               (fun net ->
                 let mst = Routing.mst_of_net net in
                 let trace =
                   Nontree.Ldrg.run ~pool
                     ~model:local.Nontree.Experiment.search_model ~tech mst
                 in
                 let s =
                   Nontree.Experiment.sample local ~baseline:mst
                     ~routing:trace.Nontree.Ldrg.final
                 in
                 [ s.Nontree.Stats.delay_ratio;
                   s.Nontree.Stats.cost_ratio;
                   Bool.to_float (Nontree.Stats.winner s) ])
               nets)
        in
        Printf.sprintf "    driver %5.0f Ohm : delay %s, cost %s, wins %d/%d"
          rd (mean_fmt (col 0)) (mean_fmt (col 1))
          (int_of_float (sum (col 2)))
          (Array.length nets))
      drivers
  in
  Printf.sprintf
    "Extension X8 -- driver-strength sensitivity (%d nets of %d pins)\n\
    \  LDRG vs MST as the driver resistance sweeps around Table 1's 100 Ohm;\n\
    \  wire parameters fixed. Strong drivers reward extra wires, weak\n\
    \  drivers punish the added capacitance.\n%s\n"
    (Array.length nets) size
    (String.concat "\n" lines)

(* The artefacts ---------------------------------------------------------- *)

type selector = Table of int | Figure of int | Ext of string

type artefact = {
  selector : selector;
  section : string;
  render : config -> svg_dir:string -> string;
}

let table n render =
  { selector = Table n;
    section = string_of_int n;
    render = (fun config ~svg_dir:_ -> render config) }

let mst_baseline = "the MST routing"

let rendered ~title ~baseline rows config =
  Table.render ~title ~baseline (rows config)

let figure n make =
  { selector = Figure n;
    section = "figures";
    render =
      (fun config ~svg_dir ->
        (* Before the figure's search, so an unusable directory costs
           nothing. *)
        ensure_svg_dir svg_dir;
        let f = make config in
        render_figure f
        ^ String.concat ""
            (List.map (Printf.sprintf "svg: %s\n")
               (save_figure_svgs ~dir:svg_dir f))) }

let ext name run =
  { selector = Ext name;
    section = "ext";
    render = (fun config ~svg_dir:_ -> run config) }

let artefacts =
  [ table 1 table1;
    table 2
      (rendered ~title:"Table 2: LDRG Algorithm Statistics"
         ~baseline:mst_baseline table2);
    table 3
      (rendered ~title:"Table 3: SLDRG Algorithm Statistics"
         ~baseline:"the Iterated-1-Steiner tree" table3);
    table 4
      (rendered ~title:"Table 4: H1 Heuristic Statistics"
         ~baseline:mst_baseline table4);
    table 5 (fun config ->
        let h2, h3 = table5 config in
        Table.render ~title:"Table 5a: H2 Heuristic Statistics"
          ~baseline:mst_baseline h2
        ^ Table.render ~title:"Table 5b: H3 Heuristic Statistics"
            ~baseline:mst_baseline h3);
    table 6
      (rendered ~title:"Table 6: Elmore Routing Tree Statistics"
         ~baseline:mst_baseline table6);
    table 7
      (rendered ~title:"Table 7: ERT-Based LDRG Algorithm Statistics"
         ~baseline:"the ERT routing" table7);
    figure 1 figure1;
    figure 2 figure2;
    figure 3 figure3;
    figure 5 figure5;
    ext "csorg" ext_csorg;
    ext "wsorg" ext_wsorg;
    ext "oracle" ext_oracle;
    ext "rlc" ext_rlc;
    ext "trees" ext_trees;
    ext "budget" ext_budget;
    ext "prune" ext_prune;
    ext "sensitivity" ext_sensitivity ]

let sections =
  List.rev
    (List.fold_left
       (fun acc a -> if List.mem a.section acc then acc else a.section :: acc)
       [] artefacts)

(* More worker domains than cores only slows a run down: OCaml 5 minor
   collections stop every domain, and the scoring path allocates. *)
let clamp_jobs requested =
  if requested < 1 then Error "--jobs must be >= 1"
  else begin
    let cores = Domain.recommended_domain_count () in
    if requested > cores then
      Logs.warn (fun m ->
          m "--jobs %d exceeds the %d available cores; using %d" requested
            cores cores);
    Ok (min requested cores)
  end
