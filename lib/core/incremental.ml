(* Incremental edit scoring for the greedy loops.

   A greedy round evaluates many one-wire edits of the same base
   routing: LDRG adds an absent edge (u,v), wire sizing widens an
   existing one. Re-stamping and re-factoring the full system per trial
   is wasted work. This module factors the base once per round and
   scores each edit as the base plus one conductance change Δg between
   two existing unknowns, solved by Sherman–Morrison
   ([Numeric.Sparse.with_conductance]). An edit is the wire it
   changes, with old and new per-width values: an addition has zero
   old values, a resize the wire's current ones.

   - moment models: G gains Δg = 1/R_new − 1/R_old, the capacitance
     vector half the capacitance change at each end; first (and
     second) moments are two updated solves against the round's
     factorisation.
   - SPICE (RC): the horizon comes from the incremental first moments.
     At DC the wire's capacitors are open, so its π-chain of n_seg
     segments is one series conductance 1/(n_seg·seg_r) between its end
     vertices, and its interior nodes lie evenly between the two end
     voltages. The DC operating point and the settled state are
     therefore updated solves against the round's factored MNA G,
     interpolated onto the interior nodes. The transient gets the
     per-segment stamp changes on the wire's chain as plain
     [Transient.stamps]: freshly appended interior unknowns for an
     addition, the chain's existing unknowns for a resize (the segment
     count depends only on length). The shared threshold scan assembles
     the companion straight from the base matrices and these stamps
     and factors it, once: it depends on the trial's own
     horizon-derived timestep. No extended system is built.

   Any numeric degeneracy (a companion the sparse kernel refuses
   included), injected fault or never-settling probe abandons the
   incremental attempt and re-evaluates the trial on the plain robust
   path (retry-with-refinement, model degradation), counted under
   oracle.incremental_fallbacks; a base that will not factor sends the
   whole round there. Results are memoised in
   [Oracle.Cache] as edit entries, keyed by the round's base digest plus
   the edit. On by default. *)

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

type edit = Add of int * int | Resize of (int * int) * float

(* An edit as the wire it stamps: its endpoints, its length, the width
   it ends with and the width it replaces ([None]: the wire is new).
   Added wires carry width 1.0 (Routing.add_edge) and Manhattan length;
   a resized wire is named in canonical order (u < v), the orientation
   of its lowered chain. *)
type wire = {
  u : int;
  v : int;
  length : float;
  width : float;
  was : float option;
}

let wire_of_edit r = function
  | Add (u, v) ->
      let length =
        Geom.Point.manhattan (Routing.point r u) (Routing.point r v)
      in
      { u; v; length; width = 1.0; was = None }
  | Resize ((a, b), width) ->
      let u = Int.min a b and v = Int.max a b in
      { u; v; length = Routing.edge_length r u v; width;
        was = Some (Routing.width r u v) }

(* [f new - f old] for a per-width quantity of the wire. A new wire's
   old values are zero, so its change is [f new] bit for bit. *)
let change w f =
  match w.was with None -> f w.width | Some w0 -> f w.width -. f w0

(* Per-round moments context: base conductance factorisation plus the
   base capacitance vector. Shared read-only across worker domains;
   every candidate builds its own updated solver. *)
type moments_ctx = { m_lu : Numeric.Sparse.t; m_cap : float array }

let prepare_moments ~tech r =
  match Numeric.Sparse.try_factor (Delay.Moments.conductance_matrix ~tech r) with
  | Error _ -> None
  | Ok m_lu ->
      Some { m_lu; m_cap = Delay.Moments.node_capacitances ~tech r }

let moment_update ctx ~tech w =
  let length = w.length in
  let cond =
    change w (fun width ->
        1.0 /. Circuit.Technology.wire_resistance_of tech ~length ~width)
  in
  let cap =
    change w (fun width ->
        Circuit.Technology.wire_capacitance_of tech ~length ~width)
  in
  let c = Array.copy ctx.m_cap in
  c.(w.u) <- c.(w.u) +. (cap /. 2.0);
  c.(w.v) <- c.(w.v) +. (cap /. 2.0);
  match Numeric.Sparse.with_conductance ctx.m_lu w.u w.v cond with
  | None -> fall_back "degenerate moments update"
  | Some solve ->
      let m1 = solve c in
      if not (all_finite m1) then fall_back "non-finite first moments";
      (solve, c, m1)

let first_moment_delays ctx ~tech r w =
  let _, _, m1 = moment_update ctx ~tech w in
  List.map (fun s -> (s, m1.(s))) (Routing.sinks r)

let two_pole_delays ctx ~tech r w =
  let solve, c, m1 = moment_update ctx ~tech w in
  let rhs = Array.init (Array.length c) (fun i -> c.(i) *. m1.(i)) in
  let m2 = solve rhs in
  if not (all_finite m2) then fall_back "non-finite second moments";
  let d = Delay.Moments.two_pole_fit ~m1 ~m2 in
  List.map (fun s -> (s, d.(s))) (Routing.sinks r)

(* Per-round SPICE context: the base routing lowered and its MNA
   conductance matrix factored once, with the unknown of every vertex
   and the lowered nodes of every existing wire's π-chain. *)
type spice_ctx = {
  cfg : Delay.Model.spice_config;
  sys : Spice.Mna.t;
  g_lu : Numeric.Sparse.t;
  sink_unknowns : int array;  (* probe indices, in sink order *)
  vertex_unknown : int array;  (* routing vertex -> MNA unknown *)
  chains : ((int * int) * Circuit.Element.node array) array;
      (* Lumping.lower's chains: wire (u < v) -> its nodes from u to v *)
  mom : moments_ctx;  (* for the horizon estimate *)
}

let prepare_spice ~tech cfg r =
  match prepare_moments ~tech r with
  | None -> None
  | Some mom -> (
      match
        let l =
          Delay.Lumping.lower ~segmentation:cfg.Delay.Model.segmentation
            ~include_inductance:false ~tech r
        in
        (l, Spice.Mna.build l.Delay.Lumping.netlist)
      with
      | exception _ -> None
      | l, sys -> (
          match Spice.Mna.factor_g_result sys with
          | Error _ -> None
          | Ok g_lu ->
              let unknown node = sys.Spice.Mna.unknown_of_node.(node) in
              let vertex_unknown =
                Array.map unknown l.Delay.Lumping.vertex_nodes
              in
              let sink_unknowns =
                Array.of_list
                  (List.map (fun s -> vertex_unknown.(s)) (Routing.sinks r))
              in
              Some
                { cfg; sys; g_lu; sink_unknowns; vertex_unknown;
                  chains = l.Delay.Lumping.chains; mom }))

let spice_delays ctx ~tech r w =
  (* Horizon from the trial's first moments — Model.spice_horizon
     computed incrementally. *)
  let _, _, m1 = moment_update ctx.mom ~tech w in
  let m1max =
    List.fold_left (fun acc s -> Float.max acc m1.(s)) 0.0 (Routing.sinks r)
  in
  let horizon = 4.0 *. m1max in
  if not (Float.is_finite horizon && horizon > 0.0) then
    fall_back "degenerate horizon";
  (* The engine consumes one fault draw per threshold query; keep that
     budget identical so --fault-rate schedules stay aligned. *)
  if Fault.draw ~stage:"spice" <> None then fall_back "injected fault";
  let segments width =
    Delay.Lumping.pi_segments ~segmentation:ctx.cfg.Delay.Model.segmentation
      ~tech ~length:w.length ~width
  in
  (* The segment count depends only on length, so a resize restamps the
     chain it already has; an added wire gets fresh interior unknowns. *)
  let n_seg, _, _ = segments w.width in
  let seg_g =
    change w (fun width ->
        let _, r, _ = segments width in
        1.0 /. r)
  in
  let seg_c =
    change w (fun width ->
        let _, _, c = segments width in
        c)
  in
  let iu = ctx.vertex_unknown.(w.u) and iv = ctx.vertex_unknown.(w.v) in
  let n = ctx.sys.Spice.Mna.size in
  let added = if w.was = None then n_seg - 1 else 0 in
  let chain =
    match w.was with
    | Some _ ->
        let nodes =
          Array.find_map
            (fun (e, nodes) -> if e = (w.u, w.v) then Some nodes else None)
            ctx.chains
        in
        Array.map
          (fun node -> ctx.sys.Spice.Mna.unknown_of_node.(node))
          (Option.get nodes)
    | None ->
        Array.init (n_seg + 1) (fun s ->
            if s = 0 then iu else if s = n_seg then iv else n + s - 1)
  in
  (* Each segment's conductance, then its two half capacitors. *)
  let stamp i j value = { Spice.Transient.i; j; value } in
  let stamps =
    {
      Spice.Transient.added;
      g = Array.init n_seg (fun s -> stamp chain.(s) chain.(s + 1) seg_g);
      c =
        Array.init (2 * n_seg) (fun k ->
            stamp chain.((k / 2) + (k mod 2)) (-1) (seg_c /. 2.0));
    }
  in
  (* At DC the chain is one series conductance between its ends. *)
  let g =
    change w (fun width ->
        let _, r, _ = segments width in
        1.0 /. (float_of_int n_seg *. r))
  in
  match Numeric.Sparse.with_conductance ctx.g_lu iu iv g with
  | None -> fall_back "degenerate conductance update"
  | Some solve -> (
      (* The DC state of the base plus the series conductance, with the
         chain's interior nodes (appended after every base unknown for a
         new wire, the wire's own for a resized one) interpolated
         between its ends. *)
      let dc_state b =
        let x = solve b in
        let xt = Array.make (n + added) 0.0 in
        Array.blit x 0 xt 0 n;
        let xu = x.(iu) and xv = x.(iv) in
        for s = 1 to n_seg - 1 do
          xt.(chain.(s)) <-
            xu +. ((xv -. xu) *. float_of_int s /. float_of_int n_seg)
        done;
        xt
      in
      let x0 = dc_state (Spice.Mna.rhs ctx.sys 0.0) in
      if not (all_finite x0) then fall_back "non-finite operating point";
      let xf = dc_state (Spice.Mna.settled_rhs ctx.sys) in
      if not (all_finite xf) then fall_back "non-finite settled state";
      (* Only the companion matrix is factored fresh: its timestep
         derives from this candidate's horizon, so it cannot be shared
         across candidates. *)
      match
        Spice.Engine.threshold_scan_result
          ~options:ctx.cfg.Delay.Model.options ~stamps ctx.sys
          ~idx:ctx.sink_unknowns ~x0 ~xf ~horizon
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

(* Fixed width, whatever the routing's size: a tag byte, both
   endpoints as given, and for a resize the new width's bits. *)
let edit_key edit =
  let b = Bytes.create (match edit with Add _ -> 17 | Resize _ -> 25) in
  let endpoints tag u v =
    Bytes.set b 0 tag;
    Bytes.set_int64_le b 1 (Int64.of_int u);
    Bytes.set_int64_le b 9 (Int64.of_int v)
  in
  (match edit with
  | Add (u, v) -> endpoints 'a' u v
  | Resize ((u, v), width) ->
      endpoints 'r' u v;
      Bytes.set_int64_le b 17 (Int64.bits_of_float width));
  Bytes.unsafe_to_string b

let make_scorer ~model ~tech ~fallback r =
  if not (Atomic.get enabled_flag) then None
  else begin
    let wrap compute =
      (* The base is digested once, here on the calling domain: a score
         depends only on the base, the model, the technology and the
         edit, so a trial's key is this digest plus the edit's. Eager,
         not lazy: the scorer runs on worker domains, which must not
         force one shared suspension. *)
      let round =
        if Oracle.Cache.enabled () then
          Some (Oracle.Cache.round ~model ~tech r)
        else None
      in
      Some
        (fun edit trial ->
          let score () =
            let ds = compute (wire_of_edit r edit) in
            Obs.Counter.incr hits;
            ds
          in
          (* An edit entry, never a plain one: an updated solve may
             differ from the plain oracle's in the last bits. *)
          match
            match round with
            | Some round -> Oracle.Cache.memo_edit round (edit_key edit) score
            | None -> score ()
          with
          | ds -> max_sink_delay ds
          | exception Fall_back why ->
              Obs.Counter.incr fallbacks;
              Log.info (fun f -> f "incremental scoring fell back (%s)" why);
              fallback trial
          | exception Numeric.Sparse.Singular _ ->
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
          wrap (fun w ->
              (* Parity with Model.sink_delays_result's injection
                 point for the moment oracles. *)
              if Fault.draw ~stage:"moments" <> None then
                fall_back "injected fault"
              else compute_delays ctx ~tech r w)
    in
    match model with
    | Delay.Model.First_moment -> moment_scorer first_moment_delays
    | Delay.Model.Two_pole -> moment_scorer two_pole_delays
    | Delay.Model.Spice cfg when not cfg.Delay.Model.include_inductance -> (
        match prepare_spice ~tech cfg r with
        | None ->
            Obs.Counter.incr fallbacks;
            None
        | Some ctx -> wrap (fun w -> spice_delays ctx ~tech r w))
    | Delay.Model.Elmore_tree | Delay.Model.Spice _ ->
        (* Elmore needs trees (added wires never leave one); RLC wires
           are not rank-1 on G alone. Unsupported, not a failure. *)
        None
  end
