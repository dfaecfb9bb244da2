(* Incremental candidate scoring for the greedy loops.

   A greedy round evaluates every absent edge (u,v) against the same
   base routing; re-stamping and re-factoring the full system per
   candidate is wasted work, because a candidate is the base plus one
   wire. This module factors the base once per round and scores each
   candidate as the base plus one conductance between two existing
   unknowns, solved by Sherman–Morrison ([Numeric.Backend.with_conductance]):

   - moment models: G gains the wire's conductance, the capacitance
     vector two half-cap entries; first (and second) moments are two
     updated solves against the round's factorisation.
   - SPICE (RC): the horizon comes from the incremental first moments.
     At DC the wire's capacitors are open, so its π-chain of n_seg
     segments is one series conductance 1/(n_seg·seg_r) between its end
     vertices, and its interior nodes lie evenly between the two end
     voltages. The DC operating point and the settled state are
     therefore updated solves against the round's factored MNA G,
     interpolated onto the interior nodes. Only the transient's
     companion matrix, which depends on the candidate's own
     horizon-derived timestep, is factored fresh, once, by the shared
     threshold scan.

   Any numeric degeneracy, injected fault or never-settling probe
   abandons the incremental attempt and re-evaluates the candidate on
   the plain robust path (retry-with-refinement, model degradation),
   counted under oracle.incremental_fallbacks. Results are memoised in
   [Oracle.Cache] under their own path tag. On by default. *)

let src =
  Logs.Src.create "nontree.incremental" ~doc:"Incremental candidate scoring"

module Log = (val Logs.src_log src : Logs.LOG)

let enabled_flag = Atomic.make true
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag
let hits = Obs.Counter.make "oracle.incremental_hits"
let fallbacks = Obs.Counter.make "oracle.incremental_fallbacks"

exception Fall_back of string

let fall_back why = raise (Fall_back why)
let all_finite a = Array.for_all Float.is_finite a

let max_sink_delay ds =
  List.fold_left (fun acc (_, d) -> Float.max acc d) 0.0 ds

(* Per-round moments context: base conductance factorisation plus the
   base capacitance vector. Shared read-only across worker domains;
   every candidate builds its own updated solver. *)
type moments_ctx = { m_lu : Numeric.Backend.t; m_cap : float array }

let prepare_moments ~tech r =
  match Numeric.Backend.try_factor (Delay.Moments.conductance_matrix ~tech r) with
  | Error _ -> None
  | Ok m_lu ->
      Some { m_lu; m_cap = Delay.Moments.node_capacitances ~tech r }

(* Candidate wires always carry width 1.0 (Routing.add_edge) and
   Manhattan length. *)
let edge_length r (u, v) =
  Geom.Point.manhattan (Routing.point r u) (Routing.point r v)

let moment_update ctx ~tech r edge =
  let length = edge_length r edge in
  let u, v = edge in
  let cond =
    1.0 /. Circuit.Technology.wire_resistance_of tech ~length ~width:1.0
  in
  let cap = Circuit.Technology.wire_capacitance_of tech ~length ~width:1.0 in
  let c = Array.copy ctx.m_cap in
  c.(u) <- c.(u) +. (cap /. 2.0);
  c.(v) <- c.(v) +. (cap /. 2.0);
  match Numeric.Backend.with_conductance ctx.m_lu u v cond with
  | None -> fall_back "degenerate moments update"
  | Some solve ->
      let m1 = solve c in
      if not (all_finite m1) then fall_back "non-finite first moments";
      (solve, c, m1)

let first_moment_delays ctx ~tech r edge =
  let _, _, m1 = moment_update ctx ~tech r edge in
  List.map (fun s -> (s, m1.(s))) (Routing.sinks r)

let two_pole_delays ctx ~tech r edge =
  let solve, c, m1 = moment_update ctx ~tech r edge in
  let rhs = Array.init (Array.length c) (fun i -> c.(i) *. m1.(i)) in
  let m2 = solve rhs in
  if not (all_finite m2) then fall_back "non-finite second moments";
  let d = Delay.Moments.two_pole_fit ~m1 ~m2 in
  List.map (fun s -> (s, d.(s))) (Routing.sinks r)

(* Per-round SPICE context: the base lumped netlist built and its MNA
   conductance matrix factored once. *)
type spice_ctx = {
  cfg : Delay.Model.spice_config;
  sys : Spice.Mna.t;
  g_lu : Numeric.Backend.t;
  sink_unknowns : int array;  (* probe indices, in sink order *)
  vertex_unknown : int array;  (* routing vertex -> MNA unknown *)
  mom : moments_ctx;  (* for the horizon estimate *)
}

let prepare_spice ~tech cfg r =
  if cfg.Delay.Model.include_inductance then None
  else
    match prepare_moments ~tech r with
    | None -> None
    | Some mom -> (
        match
          let nl, sink_names =
            Delay.Lumping.circuit_of_routing
              ~segmentation:cfg.Delay.Model.segmentation
              ~include_inductance:false ~tech r
          in
          let sys = Spice.Mna.build nl in
          (nl, sink_names, sys)
        with
        | exception _ -> None
        | nl, sink_names, sys -> (
            match Spice.Mna.factor_g_result sys with
            | Error _ -> None
            | Ok g_lu ->
                let unknown_of name =
                  match Circuit.Netlist.find_node nl name with
                  | Some node -> sys.Spice.Mna.unknown_of_node.(node)
                  | None -> -1
                in
                let vertex_unknown =
                  Array.init (Routing.num_vertices r) (fun i ->
                      unknown_of (Delay.Lumping.vertex_node_name i))
                in
                let sink_unknowns =
                  Array.of_list (List.map unknown_of sink_names)
                in
                if
                  Array.exists (fun u -> u < 0) vertex_unknown
                  || Array.exists (fun u -> u < 0) sink_unknowns
                then None
                else Some { cfg; sys; g_lu; sink_unknowns; vertex_unknown; mom }
            ))

let spice_delays ctx ~tech r edge =
  (* Horizon from the trial's first moments — Model.spice_horizon
     computed incrementally. *)
  let _, _, m1 = moment_update ctx.mom ~tech r edge in
  let m1max =
    List.fold_left (fun acc s -> Float.max acc m1.(s)) 0.0 (Routing.sinks r)
  in
  let horizon = 4.0 *. m1max in
  if not (Float.is_finite horizon && horizon > 0.0) then
    fall_back "degenerate horizon";
  (* The engine consumes one fault draw per threshold query; keep that
     budget identical so --fault-rate schedules stay aligned. *)
  if Fault.draw ~stage:"spice" <> None then fall_back "injected fault";
  let u, v = edge in
  let n_seg, seg_r, seg_c =
    Delay.Lumping.pi_segments ~segmentation:ctx.cfg.Delay.Model.segmentation
      ~tech ~length:(edge_length r edge) ~width:1.0
  in
  let iu = ctx.vertex_unknown.(u) and iv = ctx.vertex_unknown.(v) in
  let d = Spice.Mna.Delta.create ctx.sys in
  let chain =
    Array.init (n_seg + 1) (fun s ->
        if s = 0 then iu
        else if s = n_seg then iv
        else Spice.Mna.Delta.fresh_unknown d)
  in
  for s = 0 to n_seg - 1 do
    Spice.Mna.Delta.add_conductance d chain.(s) chain.(s + 1) (1.0 /. seg_r);
    Spice.Mna.Delta.add_capacitance d chain.(s) (-1) (seg_c /. 2.0);
    Spice.Mna.Delta.add_capacitance d chain.(s + 1) (-1) (seg_c /. 2.0)
  done;
  let g = 1.0 /. (float_of_int n_seg *. seg_r) in
  match Numeric.Backend.with_conductance ctx.g_lu iu iv g with
  | None -> fall_back "degenerate conductance update"
  | Some solve -> (
      let ext_sys = Spice.Mna.Delta.extend ctx.sys d in
      (* The DC state of the base plus the series conductance, with the
         chain's interior nodes (appended after every base unknown)
         interpolated between its ends. *)
      let dc_state t =
        let x = solve (Spice.Mna.rhs ctx.sys t) in
        let xt = Array.make ext_sys.Spice.Mna.size 0.0 in
        Array.blit x 0 xt 0 (Array.length x);
        let xu = x.(iu) and xv = x.(iv) in
        for s = 1 to n_seg - 1 do
          xt.(chain.(s)) <-
            xu +. ((xv -. xu) *. float_of_int s /. float_of_int n_seg)
        done;
        xt
      in
      let x0 = dc_state 0.0 in
      if not (all_finite x0) then fall_back "non-finite operating point";
      let xf = dc_state (Spice.Engine.settled_time ~horizon) in
      if not (all_finite xf) then fall_back "non-finite settled state";
      (* Only the companion matrix is factored fresh: its timestep
         derives from this candidate's horizon, so it cannot be shared
         across candidates. *)
      match
        Spice.Engine.threshold_scan_result
          ~options:ctx.cfg.Delay.Model.options ext_sys ~idx:ctx.sink_unknowns
          ~x0 ~xf ~horizon
      with
      | Error e -> fall_back (Nontree_error.to_string e)
      | Ok found ->
          List.mapi
            (fun i s ->
              match found.(i) with
              | Some t when Float.is_finite t -> (s, t)
              | Some _ -> fall_back "non-finite delay"
              | None -> fall_back "probe never settled")
            (Routing.sinks r))

let make_scorer ~model ~tech ~fallback r =
  if not (Atomic.get enabled_flag) then None
  else begin
    let wrap compute =
      Some
        (fun edge trial ->
          (* Memoised under its own tag: an updated solve may differ
             from the plain oracle's in the last bits, so it must never
             answer a plain lookup. *)
          match
            Oracle.Cache.memo ~path:Incremental ~model ~tech trial (fun () ->
                let ds = compute edge in
                Obs.Counter.incr hits;
                ds)
          with
          | ds -> max_sink_delay ds
          | exception Fall_back why ->
              Obs.Counter.incr fallbacks;
              Log.info (fun f -> f "incremental scoring fell back (%s)" why);
              fallback trial
          | exception Numeric.Lu.Singular _ ->
              Obs.Counter.incr fallbacks;
              fallback trial)
    in
    let moment_scorer compute_delays =
      match prepare_moments ~tech r with
      | None ->
          (* The base would not factor; the whole round takes the
             robust path. *)
          Obs.Counter.incr fallbacks;
          None
      | Some ctx ->
          wrap (fun edge ->
              (* Parity with Model.sink_delays_result's injection
                 point for the moment oracles. *)
              if Fault.draw ~stage:"moments" <> None then
                fall_back "injected fault"
              else compute_delays ctx ~tech r edge)
    in
    match model with
    | Delay.Model.First_moment -> moment_scorer first_moment_delays
    | Delay.Model.Two_pole -> moment_scorer two_pole_delays
    | Delay.Model.Spice cfg when not cfg.Delay.Model.include_inductance -> (
        match prepare_spice ~tech cfg r with
        | None ->
            Obs.Counter.incr fallbacks;
            None
        | Some ctx -> wrap (fun edge -> spice_delays ctx ~tech r edge))
    | Delay.Model.Elmore_tree | Delay.Model.Spice _ ->
        (* Elmore needs trees (candidates never are); RLC wires are not
           rank-1 on G alone. Unsupported, not a failure. *)
        None
  end
