(* Incremental edit scoring for the greedy loops.

   A greedy round evaluates many one-wire edits of the same base
   routing: LDRG adds an absent edge (u,v), wire sizing widens an
   existing one. Re-stamping and re-factoring the full system per trial
   is wasted work. This module factors the base once per round and
   scores each edit as the base plus one conductance change Δg between
   two existing unknowns, by a Sherman–Morrison correction of a solve
   against the base ([Numeric.Sparse.with_conductance]). An edit is the
   wire it changes, with old and new per-width values: an addition has
   zero old values, a resize the wire's current ones.

   - moment models: G gains Δg = 1/R_new − 1/R_old, the capacitance
     vector half the capacitance change at each end; first (and
     second) moments are two corrected solves against the round's
     factorisation, in the candidate's own workspace.
   - SPICE (RC): the round is one [Delay.Model.prepare_spice], the
     plain oracle's set-up and the only system a round factors, inside
     one [incremental.prepare] span. At DC a wire's capacitors are
     open, so its π-chain of n_seg segments is one series conductance
     1/(n_seg·seg_r) between its ends, its interior nodes evenly
     between their voltages: each candidate corrects the round's
     operating point, settled state and first moments (with half the
     wire's capacitance change at each end) for it, and interpolates
     the interior nodes. The transient stamps the wire's segments
     ([Transient.stamps]) on fresh interior unknowns for an addition,
     on the chain's own for a resize, and refactors each trial's
     companion, whose timestep is its own, on the plan compiled from
     the round's recorded G factorisation (C is diagonal, so G's reach
     is the companion's). A wire that appends more than one unknown
     declines to the full kernel. The scan stops once the trial cannot
     come in under the greedy loop's cutoff.

   Fallbacks and memo keys are as incremental.mli states; a fallback
   that fails too raises to the greedy loop's candidate rule. *)

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
  (* The candidate's own workspace, for the correction's solve and its
     own: the round's factorisation is shared with every worker
     domain. *)
  let work = Array.make (Array.length c) 0.0 in
  match Numeric.Sparse.with_conductance ~work ctx.m_lu w.u w.v cond with
  | None -> fall_back "degenerate moments update"
  | Some correct ->
      let solve b =
        let x = Array.copy b in
        Numeric.Sparse.solve_with ~work ctx.m_lu x;
        correct x;
        x
      in
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

(* Per-round SPICE context: the base routing's set-up
   ([Delay.Model.prepare_spice]: G factored, the operating point,
   settled state and first moments solved once per round, every
   candidate only correcting them) and the unknowns of every existing
   wire's π-chain. Routing vertex i is unknown i. *)
module Wires = Hashtbl.Make (Int)

type spice_ctx = {
  cfg : Delay.Model.spice_config;
  base : Spice.Engine.prepared;
  sinks : int array;  (* probe unknowns, in sink order *)
  chains : int array Wires.t;
      (* Lumping.system's chains, keyed u·vertices + v for the wire
         (u < v): its unknowns from u to v *)
  vertices : int;
}

let prepare_spice ~tech cfg r =
  match Delay.Model.prepare_spice cfg ~tech r with
  | Error _ -> None
  | Ok ({ Delay.Lumping.chains; _ }, base) ->
      let vertices = Routing.num_vertices r in
      let index = Wires.create (Array.length chains) in
      Array.iter
        (fun ((u, v), chain) -> Wires.replace index ((u * vertices) + v) chain)
        chains;
      Some
        { cfg; base; sinks = Array.of_list (Routing.sinks r); chains = index;
          vertices }

(* A trial on the round's system: its wire's π-segments ([per_chain f]
   is the change in [f seg_r seg_c]; the count depends only on length),
   the round's G corrected for the wire at DC, where its chain is one
   series conductance between its ends, and its window: a chain's
   interior capacitances split evenly to its ends, so the wire adds
   half its capacitance change at each end to the round's c, solved
   and corrected likewise. *)
let spice_trial ctx ~tech r w =
  let segments width =
    Delay.Lumping.pi_segments ~segmentation:ctx.cfg.Delay.Model.segmentation
      ~tech ~length:w.length ~width
  in
  let n_seg, _, _ = segments w.width in
  let per_chain f =
    change w (fun width ->
        let _, r, c = segments width in
        f r c)
  in
  let p = ctx.base in
  (* The candidate's own workspace: the round's factorisation is
     shared with every worker domain. *)
  let work = Array.make (Array.length p.Spice.Engine.x0) 0.0 in
  let g = per_chain (fun r _ -> 1.0 /. (float_of_int n_seg *. r)) in
  match Numeric.Sparse.with_conductance ~work p.Spice.Engine.g_lu w.u w.v g with
  | None -> fall_back "degenerate conductance update"
  | Some correct ->
      let half = per_chain (fun _ c -> float_of_int n_seg *. c) /. 2.0 in
      let m1 = Array.copy p.Spice.Engine.cap in
      m1.(w.u) <- m1.(w.u) +. half;
      m1.(w.v) <- m1.(w.v) +. half;
      Numeric.Sparse.solve_with ~work p.Spice.Engine.g_lu m1;
      correct m1;
      let horizon = Delay.Model.window r m1 in
      if not (Float.is_finite horizon && horizon > 0.0) then
        fall_back "degenerate horizon";
      (n_seg, per_chain, correct, horizon)

let spice_delays ctx ~tech r ~cutoff w =
  let n_seg, per_chain, correct, horizon = spice_trial ctx ~tech r w in
  (* The engine consumes one fault draw per threshold query; keep that
     budget identical so --fault-rate schedules stay aligned. *)
  if Fault.draw ~stage:"spice" <> None then fall_back "injected fault";
  let seg_g = per_chain (fun r _ -> 1.0 /. r) in
  let seg_c = per_chain (fun _ c -> c) in
  let iu = w.u and iv = w.v in
  let p = ctx.base in
  let n = Array.length p.Spice.Engine.x0 in
  (* A resize restamps the chain the wire already has; an added wire
     gets fresh interior unknowns. *)
  let added = if w.was = None then n_seg - 1 else 0 in
  let chain =
    match w.was with
    | Some _ -> Wires.find ctx.chains ((w.u * ctx.vertices) + w.v)
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
  (* The DC state of the base plus the series conductance: the round's
     base solution, corrected, with the chain's interior nodes
     (appended after every base unknown for a new wire, the wire's own
     for a resized one) interpolated between its ends. *)
  let dc_state base =
    let x = Array.make (n + added) 0.0 in
    Array.blit base 0 x 0 n;
    correct x;
    let xu = x.(iu) and xv = x.(iv) in
    for s = 1 to n_seg - 1 do
      x.(chain.(s)) <- xu +. ((xv -. xu) *. float_of_int s /. float_of_int n_seg)
    done;
    x
  in
  let x0 = dc_state p.Spice.Engine.x0 in
  if not (all_finite x0) then fall_back "non-finite operating point";
  let xf = dc_state p.Spice.Engine.xf in
  if not (all_finite xf) then fall_back "non-finite settled state";
  (* Only the companion matrix is factored per candidate, refactored
     on the round's plan: its timestep derives from this candidate's
     horizon, so it cannot be shared across candidates. *)
  match
    Spice.Engine.threshold_scan_result ~options:ctx.cfg.Delay.Model.options
      ~stamps ~cutoff p.Spice.Engine.pattern ~idx:ctx.sinks ~x0 ~xf ~horizon
  with
  | Error e -> fall_back (Nontree_error.to_string e)
  | Ok (Spice.Engine.Above b) -> Spice.Engine.Above b
  | Ok (Spice.Engine.Exact found) ->
      Spice.Engine.Exact
        (List.mapi
           (fun i s ->
             match found.(i) with
             | Some t when Float.is_finite t -> (s, t)
             | Some _ -> fall_back "non-finite delay"
             | None -> fall_back "probe never settled")
           (Routing.sinks r))

let spice_window ~tech cfg r edit =
  Option.bind (prepare_spice ~tech cfg r) (fun ctx ->
      match spice_trial ctx ~tech r (wire_of_edit r edit) with
      | _, _, _, horizon -> Some horizon
      | exception Fall_back _ -> None)

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

let apply r = function
  | Add (u, v) -> Routing.add_edge r u v
  | Resize ((u, v), width) -> Routing.set_width r u v width

type scorer = Exact of (edit -> float) | Cut of (cutoff:float -> edit -> float)

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
      fun ~cutoff edit ->
        let score () =
          let ds = compute ~cutoff (wire_of_edit r edit) in
          Obs.Counter.incr hits;
          ds
        in
        (* An edit entry, never a plain one: an updated solve may
           differ from the plain oracle's in the last bits. *)
        match
          match round with
          | Some round ->
              Oracle.Cache.memo_edit ~cutoff round (edit_key edit) score
          | None -> score ()
        with
        | Spice.Engine.Exact ds -> max_sink_delay ds
        | Spice.Engine.Above b -> b
        | exception Fall_back why ->
            Obs.Counter.incr fallbacks;
            Log.info (fun f -> f "incremental scoring fell back (%s)" why);
            fallback (apply r edit)
        | exception Numeric.Sparse.Singular _ ->
            Obs.Counter.incr fallbacks;
            fallback (apply r edit)
    in
    (* A round's set-up, apart from its candidates' scoring in the
       manifest's spans. *)
    let prepare f = Obs.span "incremental.prepare" f in
    let moment_scorer compute_delays =
      match prepare (fun () -> prepare_moments ~tech r) with
      | None ->
          (* The base would not factor; the whole round takes the
             robust path. *)
          Obs.Counter.incr fallbacks;
          None
      | Some ctx ->
          let score =
            wrap (fun ~cutoff:_ w ->
                (* Parity with Model.sink_delays_result's injection
                   point for the moment oracles. *)
                if Fault.draw ~stage:"moments" <> None then
                  fall_back "injected fault"
                else Spice.Engine.Exact (compute_delays ctx ~tech r w))
          in
          Some (Exact (score ~cutoff:Float.infinity))
    in
    match model with
    | Delay.Model.First_moment -> moment_scorer first_moment_delays
    | Delay.Model.Two_pole -> moment_scorer two_pole_delays
    | Delay.Model.Spice cfg when not cfg.Delay.Model.include_inductance -> (
        match prepare (fun () -> prepare_spice ~tech cfg r) with
        | None ->
            Obs.Counter.incr fallbacks;
            None
        | Some ctx -> Some (Cut (wrap (spice_delays ctx ~tech r))))
    | Delay.Model.Elmore_tree | Delay.Model.Spice _ ->
        (* Elmore needs trees (added wires never leave one); RLC wires
           are not rank-1 on G alone. Unsupported, not a failure. *)
        None
  end
