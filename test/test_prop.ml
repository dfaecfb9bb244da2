(* Property-based differential tests for the incremental (rank-1
   update) scoring stack.

   A small shrink-free harness on [lib/rng]: [check ~trials name prop]
   runs [prop] against [trials] independent seeded generators and, on
   the first failure, reports the trial index and the exact seed that
   reproduces it. No shrinking — the generators are parameterised
   small enough (n <= 9) that failing cases are directly readable. *)

let tech = Circuit.Technology.table1

let check ?(seed = 0xD1FF) ~trials name prop =
  for t = 0 to trials - 1 do
    let trial_seed = seed + (1_000_003 * t) in
    try prop (Rng.create trial_seed)
    with e ->
      Alcotest.failf "%s: trial %d failed (seed %d): %s" name t trial_seed
        (Printexc.to_string e)
  done

(* Seeded generators ---------------------------------------------------- *)

(* A random SPD-ish conductance matrix: the Laplacian of a random
   connected graph (spanning tree plus a few extra edges, conductances
   in [0.5, 2]) grounded by a positive diagonal load at every node —
   exactly the shape of the moment oracles' G, and
   comfortably well-conditioned at these sizes. *)
let gen_spd g n =
  let a = Matrix.create n n in
  let connect i j =
    let c = Rng.float_in g 0.5 2.0 in
    Matrix.add_to a i i c;
    Matrix.add_to a j j c;
    Matrix.add_to a i j (-.c);
    Matrix.add_to a j i (-.c)
  in
  for i = 1 to n - 1 do
    connect i (Rng.int g i)
  done;
  for _ = 1 to n do
    let i = Rng.int g n and j = Rng.int g n in
    if i <> j then connect i j
  done;
  for i = 0 to n - 1 do
    Matrix.add_to a i i (Rng.float_in g 0.1 1.0)
  done;
  a

let gen_vec g n = Array.init n (fun _ -> Rng.float_in g (-1.0) 1.0)

let gen_net g =
  let pins = Rng.int_in g 4 9 in
  Geom.Netgen.uniform g ~region:(Geom.Rect.square 10_000.0) ~pins

(* Dense reference: A plus one conductance g between unknowns i and j,
   built explicitly. *)
let dense_with_conductance a i j g =
  let m = Matrix.copy a in
  Matrix.add_to m i i g;
  Matrix.add_to m j j g;
  Matrix.add_to m i j (-.g);
  Matrix.add_to m j i (-.g);
  m

let rel_err x y =
  let scale = Array.fold_left (fun m v -> Float.max m (abs_float v)) 1.0 y in
  Matrix.max_abs_diff x y /. scale

let factor_sparse a =
  match Numeric.Sparse.try_factor (Matrix.to_csc a) with
  | Ok f -> f
  | Error k -> failwith (Printf.sprintf "singular at column %d" k)

(* Two distinct unknowns of an n-unknown system. *)
let gen_pair g n =
  let i = Rng.int g n in
  let j = (i + 1 + Rng.int g (n - 1)) mod n in
  (i, j)

(* Differential properties ---------------------------------------------- *)

(* Sherman–Morrison solve vs a fresh LU of the updated matrix: 200
   random (SPD-ish matrix, one conductance of either sign) pairs must
   agree to 1e-9 relative. A refused update (None) is the documented
   fallback trigger, not a disagreement — the fresh path remains the
   oracle. (Sherman–Morrison is the rank-1 case of the Woodbury
   identity, hence the test's name.) *)
let prop_woodbury_matches_fresh g =
  let n = Rng.int_in g 2 8 in
  let a = gen_spd g n in
  let i, j = gen_pair g n in
  let c = Rng.float_in g 0.1 2.0 in
  let c = if Rng.bool g then c else -.c in
  let b = gen_vec g n in
  let f = factor_sparse a in
  let z = Array.make n 0.0 in
  let s =
    Numeric.Sparse.with_conductance ~work:(Array.make n 0.0) ~z f i j c
  in
  if not (Float.is_nan s) then begin
    let x = Numeric.Sparse.solve f b in
    Numeric.Sparse.apply_conductance ~z i j s x;
    let fresh = Lu.solve_matrix (dense_with_conductance a i j c) b in
    let err = rel_err x fresh in
    if err > 1e-9 then
      Alcotest.failf "rank-1 vs fresh: n=%d (%d,%d) g=%g rel err %.3e" n i j
        c err
  end

(* The deterministic near-singular construction: g = -1/(wᵀA⁻¹w) makes
   the Sherman–Morrison denominator exactly zero, which the helper must
   detect and refuse — the fallback trigger of the scorer. *)
let prop_near_singular_rejected g =
  let n = Rng.int_in g 2 6 in
  let a = gen_spd g n in
  let f = factor_sparse a in
  let i, j = gen_pair g n in
  let w = Array.make n 0.0 in
  w.(i) <- 1.0;
  w.(j) <- -1.0;
  let z = Numeric.Sparse.solve f w in
  let c = -1.0 /. (z.(i) -. z.(j)) in
  if
    not
      (Float.is_nan
         (Numeric.Sparse.with_conductance ~work:(Array.make n 0.0)
            ~z:(Array.make n 0.0) f i j c))
  then
    Alcotest.failf "singularising update accepted: n=%d (%d,%d) g=%h" n i j c

(* The move adding the absent wire (u,v) to [r], and the one setting
   its existing wire (u,v) to [width], as the greedy loops list them. *)
let add_wire r u v = List.hd (Nontree.Ldrg.adds (fun _ -> [ (u, v) ]) r)

let resize_wire r u v width =
  { Delay.Model.u; v; length = Routing.edge_length r u v; width;
    was = Some (Routing.width r u v) }

(* A random absent edge of [r] added, with the trial routing it
   yields; [None] when [r] is complete. *)
let gen_add g r =
  match Routing.candidate_edges r with
  | [] -> None
  | cands ->
      let u, v = List.nth cands (Rng.int g (List.length cands)) in
      Some (add_wire r u v, Routing.add_edge r u v)

(* A random one-wire edit of [r] and the trial routing it yields: an
   absent edge added or, about half the time, an existing wire widened
   to 2 or 3. *)
let gen_edit g r =
  match if Rng.bool g then gen_add g r else None with
  | Some edit -> edit
  | None ->
      let ws = Routing.widths r in
      let (u, v), _ = List.nth ws (Rng.int g (List.length ws)) in
      let w = if Rng.bool g then 2.0 else 3.0 in
      (resize_wire r u v w, Routing.set_width r u v w)

let edit_to_string (w : Delay.Model.wire) =
  match w.was with
  | None -> Printf.sprintf "add (%d,%d)" w.u w.v
  | Some _ -> Printf.sprintf "resize (%d,%d) to %g" w.u w.v w.width

(* The base of a round: the net's MST or, half the time, the MST plus
   one random wire — the non-tree routings wire sizing sees after
   LDRG. *)
let gen_base g net =
  let r = Routing.mst_of_net net in
  match Routing.candidate_edges r with
  | (_ :: _ as cands) when Rng.bool g ->
      let u, v = List.nth cands (Rng.int g (List.length cands)) in
      Routing.add_edge r u v
  | _ -> r

(* The per-sink delays of one edit of [r], in [Routing.sinks] order:
   [Delay.Model.score] of the edit on [r]'s round. The scorer's memo
   entry for the edit, keyed by [r]'s round digest and the edit (a
   fresh memo, so the entry is this score's), must be their largest bit
   for bit; fails the test on a fallback. *)
let incremental_delays ~model r edit =
  let ds =
    match
      Result.bind (Delay.Model.prepare model ~tech r) (fun round ->
          Delay.Model.score round (Some edit))
    with
    | Ok (Spice.Engine.Exact ds) -> ds
    | Ok (Spice.Engine.Above _) -> Alcotest.fail "an uncut score was a bound"
    | Error e ->
        Alcotest.failf "%s failed: %s" (edit_to_string edit)
          (Nontree_error.to_string e)
  in
  let fallback _ = Alcotest.failf "%s fell back" (edit_to_string edit) in
  let module C = Nontree.Oracle.Cache in
  let prev = C.enabled () in
  C.reset ();
  C.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      C.set_enabled prev;
      C.reset ())
    (fun () ->
      let score = Nontree.Incremental.make_scorer ~model ~tech ~fallback r in
      ignore (score ~cutoff:Float.infinity edit);
      match
        C.memo_edit ~cutoff:infinity (C.round ~model ~tech r)
          (Nontree.Incremental.edit_key edit)
          (fun () -> Alcotest.fail "the score was not memoised")
      with
      | Spice.Engine.Exact d ->
          let largest = Delay.Sinks.largest ds in
          if Int64.bits_of_float d <> Int64.bits_of_float largest then
            Alcotest.failf "%s: memo entry %h, largest sink delay %h"
              (edit_to_string edit) d largest;
          ds
      | Spice.Engine.Above _ -> Alcotest.fail "an uncut score was a bound")

(* Every sink's incremental delay matches the plain oracle's on the
   rebuilt trial to 1e-9 of the largest. *)
let check_edit_delays ~model ~what r edit trial =
  let inc = incremental_delays ~model r edit in
  let plain = Delay.Robust.sink_delays_exn ~model ~tech trial in
  let scale = List.fold_left (fun acc (_, d) -> Float.max acc d) 0.0 plain in
  if Array.length inc <> List.length plain then
    Alcotest.failf "%d incremental delays, %d sinks" (Array.length inc)
      (List.length plain);
  List.iteri
    (fun i ((s, dp), s') ->
      if s <> s' then Alcotest.failf "sink order %d vs %d" s s';
      let di = inc.(i) in
      let err = abs_float (di -. dp) /. scale in
      if err > 1e-9 then
        Alcotest.failf "%s %s, %s, sink %d: incremental %h vs plain %h (%.3e)"
          what (Delay.Model.name model) (edit_to_string edit) s di dp err)
    (List.combine plain (Routing.sinks r))

(* The moment stamp algebra end to end on random point nets. Every
   trial checks an added wire on the MST under the first moment, then
   a random edit (an added wire or a widened one) of an MST or a
   one-loop routing under the first moment or two-pole: the sink delays
   computed through the incremental update must match the moments of
   the rebuilt trial routing to 1e-9 relative. *)
let prop_incremental_moments_match_rebuild g =
  let net = gen_net g in
  let mst = Routing.mst_of_net net in
  Option.iter
    (fun (edit, trial) ->
      check_edit_delays ~model:Delay.Model.First_moment ~what:"moments" mst
        edit trial)
    (gen_add g mst);
  let r = gen_base g net in
  let edit, trial = gen_edit g r in
  let model =
    if Rng.bool g then Delay.Model.First_moment else Delay.Model.Two_pole
  in
  check_edit_delays ~model ~what:"moments" r edit trial

(* The SPICE scorer end to end on a random table-2 net (same seed
   derivation as the experiment harness). Every trial checks an added
   wire on the MST under the default profile (whose per-length
   segmentation gives wires 1–6 π-segments, so the DC series chain and
   its interpolated interior nodes are exercised), then a random edit
   under the fast or the default profile: the base is the MST or the
   MST with one added wire, and the edit adds a wire or widens an
   existing one, whose chain is then restamped in place. The
   incremental sink delays must match the plain oracle's on the
   rebuilt trial to 1e-9 relative. The scorer must not fall back. *)
let prop_incremental_spice_matches_plain g =
  Fault.disable ();
  let size = if Rng.bool g then 5 else 10 in
  let nets =
    Geom.Netgen.uniform_batch
      ~seed:(1994 + (1_000_003 * size))
      ~region:(Geom.Rect.square tech.Circuit.Technology.layout_side)
      ~pins:size ~trials:10
  in
  let net = nets.(Rng.int g (Array.length nets)) in
  let what = Printf.sprintf "size %d" size in
  let mst = Routing.mst_of_net net in
  Option.iter
    (fun (edit, trial) ->
      check_edit_delays ~model:(Delay.Model.Spice Delay.Model.default_spice)
        ~what mst edit trial)
    (gen_add g mst);
  let r = gen_base g net in
  let edit, trial = gen_edit g r in
  let cfg =
    if Rng.bool g then Delay.Model.fast_spice else Delay.Model.default_spice
  in
  check_edit_delays ~model:(Delay.Model.Spice cfg) ~what r edit trial

(* Early stopping moves no crossing. The reference integrates every
   chunk's whole window (doubling, like the engine) and interpolates
   each probe's first sample at or above its 50 % target against the
   sample before it, exactly as [Engine.threshold_scan_result] does. *)
let full_window_scan (options : Spice.Engine.options) pattern ~idx ~x0 ~xf
    ~horizon =
  let target =
    Array.map (fun u -> x0.(u) +. (0.5 *. (xf.(u) -. x0.(u)))) idx
  in
  let found =
    Array.mapi
      (fun p u -> if x0.(u) >= target.(p) then Some 0.0 else None)
      idx
  in
  let dt = horizon /. float_of_int options.steps_per_chunk in
  let t_ref =
    Spice.Engine.input_reference (Spice.Transient.system pattern) ~dt
  in
  Result.get_ok @@ Spice.Transient.with_companion pattern ~dt @@ fun cp ->
  let last = Array.map (fun u -> (x0.(u), 0.0)) idx in
  let rec go x t0 steps extensions =
    if Array.exists Option.is_none found && extensions <= options.max_extensions
    then begin
      let chunk = Spice.Transient.run cp ~x0:x ~t0 ~steps ~probes:idx in
      Array.iteri
        (fun p col ->
          Array.iteri
            (fun s v1 ->
              if found.(p) = None then begin
                let v0, t_prev = last.(p)
                and t1 = chunk.Spice.Transient.times.(s) in
                if v1 >= target.(p) then
                  let t_cross =
                    if v1 = v0 then t1
                    else
                      t_prev
                      +. ((target.(p) -. v0) /. (v1 -. v0) *. (t1 -. t_prev))
                  in
                  found.(p) <- Some (Float.max 0.0 (t_cross -. t_ref))
                else last.(p) <- (v1, t1)
              end)
            col)
        chunk.Spice.Transient.states;
      go chunk.Spice.Transient.final
        (t0 +. (float_of_int steps *. dt))
        (steps * 2) (extensions + 1)
    end
  in
  go x0 0.0 options.steps_per_chunk 0;
  found

(* A threshold query on a random table-2 net (half the time with one
   added wire) under the fast or default profile. A quarter of the
   cases start from a horizon 50x too short, so the crossings land in a
   doubled extension chunk; a quarter start one sink at its settled
   value, so that probe is at its target from the first instant. *)
type scan_case = {
  options : Spice.Engine.options;
  pattern : Spice.Transient.pattern;
  idx : int array;
  x0 : float array;
  xf : float array;
  horizon : float;
  size : int;
  case : int;
}

let gen_scan_case g =
  let config =
    if Rng.bool g then Delay.Model.fast_spice else Delay.Model.default_spice
  in
  let options = config.Delay.Model.options in
  let size = [| 5; 10; 20 |].(Rng.int g 3) in
  let nets =
    Geom.Netgen.uniform_batch
      ~seed:(1994 + (1_000_003 * size))
      ~region:(Geom.Rect.square tech.Circuit.Technology.layout_side)
      ~pins:size ~trials:10
  in
  let r = Routing.mst_of_net nets.(Rng.int g (Array.length nets)) in
  let r =
    if Rng.bool g then
      let cands = Routing.candidate_edges r in
      let u, v = List.nth cands (Rng.int g (List.length cands)) in
      Routing.add_edge r u v
    else r
  in
  let nl, sinks =
    Delay.Lumping.circuit_of_routing
      ~segmentation:config.Delay.Model.segmentation ~tech r
  in
  let sys = Spice.Mna.build nl in
  let idx =
    Array.of_list
      (List.map
         (fun name ->
           match Circuit.Netlist.find_node nl name with
           | Some node -> sys.Spice.Mna.unknown_of_node.(node)
           | None -> Alcotest.failf "no sink node %s" name)
         sinks)
  in
  let horizon = Delay.Model.spice_horizon ~tech r in
  let { Spice.Engine.x0; xf; pattern; _ } =
    Result.get_ok (Spice.Engine.prepare_result sys)
  in
  let case = Rng.int g 4 in
  let horizon = if case = 0 then horizon /. 50.0 else horizon in
  let x0 =
    if case = 1 then begin
      let x = Array.copy x0 and u = idx.(Rng.int g (Array.length idx)) in
      x.(u) <- xf.(u);
      x
    end
    else x0
  in
  { options; pattern; idx; x0; xf; horizon; size; case }

let scan ?cutoff c =
  match
    Spice.Engine.threshold_scan_result ~options:c.options ?cutoff c.pattern
      ~idx:c.idx ~x0:c.x0 ~xf:c.xf ~horizon:c.horizon
  with
  | Ok (Spice.Engine.Exact found) ->
      (* Crossings as the reference reports them: [None] for nan. *)
      Spice.Engine.Exact
        (Array.map (fun d -> if Float.is_nan d then None else Some d) found)
  | Ok (Spice.Engine.Above b) -> Spice.Engine.Above b
  | Error e -> Alcotest.failf "scan failed: %s" (Nontree_error.to_string e)

(* The engine's scan, whose chunks stop at the last crossing, reports
   crossings bit-identical to the full-window reference. *)
let prop_scan_stops_without_moving_crossings g =
  let ({ options; pattern; idx; x0; xf; horizon; size; case } as c) =
    gen_scan_case g
  in
  let found =
    match scan c with
    | Spice.Engine.Exact found -> found
    | Spice.Engine.Above _ -> Alcotest.fail "a scan without cutoff was cut"
  in
  let reference = full_window_scan options pattern ~idx ~x0 ~xf ~horizon in
  let bits = Array.map (Option.map Int64.bits_of_float) in
  if Array.exists Option.is_none found then
    Alcotest.failf "size %d: a probe never crossed" size;
  if bits found <> bits reference then
    Alcotest.failf "size %d case %d: crossings moved" size case;
  let latest = Array.fold_left (fun m d -> Float.max m (Option.get d)) 0.0 found in
  if case = 0 && latest <= horizon then
    Alcotest.failf "size %d: short horizon crossed in the first chunk" size;
  if case = 1 && not (Array.mem (Some 0.0) found) then
    Alcotest.failf "size %d: the settled sink did not report 0" size

let spice_steps = Obs.Counter.make "spice.steps"

(* A scan's answer and the transient steps it took. *)
let counted_scan ?cutoff c =
  let s0 = Obs.Counter.value spice_steps in
  let found = scan ?cutoff c in
  (found, Obs.Counter.value spice_steps - s0)

(* On the same queries, a cutoff at or above the scan's largest delay
   (equal to it included) changes nothing: the same bits in the same
   steps. A cutoff below it either changes nothing, or stops the scan
   in fewer steps with a bound b, cutoff < b <= the largest delay; one
   more than a step below the largest delay always stops it. *)
let prop_scan_cutoff_exact_or_bound g =
  let c = gen_scan_case g in
  let bits = Array.map (Option.map Int64.bits_of_float) in
  let found, steps =
    match counted_scan c with
    | Spice.Engine.Exact found, steps -> (found, steps)
    | Spice.Engine.Above _, _ -> Alcotest.fail "a scan without cutoff was cut"
  in
  let latest =
    Array.fold_left (fun m d -> Float.max m (Option.get d)) 0.0 found
  in
  let unchanged what = function
    | Spice.Engine.Exact f, n when bits f = bits found && n = steps -> ()
    | Spice.Engine.Exact _, n ->
        Alcotest.failf "%s: %d steps, not %d, or moved crossings" what n steps
    | Spice.Engine.Above b, _ ->
        Alcotest.failf "%s: cut at %h under a largest delay of %h" what b
          latest
  in
  let bound what cutoff = function
    | Spice.Engine.Above b, n ->
        if not (cutoff < b && b <= latest && n < steps) then
          Alcotest.failf "%s: bound %h (%d steps) for cutoff %h, delay %h \
                          (%d steps)" what b n cutoff latest steps
    | exact -> unchanged what exact
  in
  List.iter
    (fun (what, cutoff) -> unchanged what (counted_scan ~cutoff c))
    [ ("cutoff = delay", latest);
      ("cutoff above delay", Float.succ latest *. 1.5);
      ("infinite cutoff", Float.infinity) ];
  let below = Rng.float g latest in
  bound "cutoff below delay" below (counted_scan ~cutoff:below c);
  let dt = c.horizon /. float_of_int c.options.Spice.Engine.steps_per_chunk in
  if latest > dt then begin
    let cutoff = Rng.float g (latest -. dt) in
    match counted_scan ~cutoff c with
    | Spice.Engine.Exact _, _ ->
        Alcotest.failf "cutoff %h, a step under delay %h: not cut" cutoff latest
    | cut -> bound "cutoff a step below delay" cutoff cut
  end

(* Parser fuzzing ---------------------------------------------------------- *)

(* Bytes that steer a mutation towards the tokens parsers trip on:
   digits, signs, exponents, unit suffixes, the letters of "nan" and
   "inf", separators and card syntax. *)
let interesting = "0123456789.-+eEnaifmkgtpu() ,\n*#"

(* Whole tokens that overflow or name a non-finite float. *)
let hostile = [| "nan"; "inf"; "-inf"; "e999"; "1e308"; "9meg"; "0x1p1024" |]

(* One to six single-byte replacements, deletions or insertions (half
   the new bytes from [interesting], half arbitrary) or insertions of a
   [hostile] token. *)
let mutate g text =
  let byte () =
    if Rng.bool g then interesting.[Rng.int g (String.length interesting)]
    else Char.chr (Rng.int g 256)
  in
  let s = ref text in
  for _ = 1 to Rng.int_in g 1 6 do
    let cur = !s in
    let n = String.length cur in
    let pos = Rng.int g (n + 1) in
    let head = String.sub cur 0 pos in
    s :=
      let tail = String.sub cur pos (n - pos) in
      match Rng.int g 4 with
      | 0 when pos < n ->
          head ^ String.make 1 (byte ()) ^ String.sub cur (pos + 1) (n - pos - 1)
      | 1 when pos < n -> head ^ String.sub cur (pos + 1) (n - pos - 1)
      | 3 -> head ^ Rng.choose g hostile ^ tail
      | _ -> head ^ String.make 1 (byte ()) ^ tail
  done;
  !s

let require_finite what values =
  List.iter
    (fun v -> if not (Float.is_finite v) then Alcotest.failf "%s %h parsed" what v)
    values

let waveform_values = function
  | Circuit.Waveform.Dc v -> [ v ]
  | Step { t0; v0; v1 } -> [ t0; v0; v1 ]
  | Ramp { t0; t1; v0; v1 } -> [ t0; t1; v0; v1 ]
  | Pulse { v0; v1; delay; rise; fall; width; period } ->
      [ v0; v1; delay; rise; fall; width; period ]
  | Pwl corners -> List.concat_map (fun (t, v) -> [ t; v ]) corners

(* Byte-mutated decks of a lumped routing (with .tran and .probe cards)
   parse to [Ok] or [Error], never raise, and every [Ok] holds only
   finite element values, waveform parameters and analysis bounds. *)
let prop_deck_fuzz g =
  let r = Routing.mst_of_net (gen_net g) in
  let nl, sinks =
    Delay.Lumping.circuit_of_routing ~include_inductance:(Rng.bool g) ~tech r
  in
  let text =
    Circuit.Deck.to_string
      ~directive_cards:
        [ Circuit.Deck.tran_card ~step:1e-11 ~stop:1e-8;
          Circuit.Deck.probe_card sinks ]
      nl
  in
  for _ = 1 to 20 do
    match Circuit.Deck.of_string_full (mutate g text) with
    | Error _ -> ()
    | Ok (nl, d) ->
        List.iter
          (function
            | Circuit.Element.Resistor { ohms = v; _ }
            | Capacitor { farads = v; _ }
            | Inductor { henries = v; _ } ->
                require_finite "element value" [ v ]
            | Vsource { wave; _ } | Isource { wave; _ } ->
                require_finite "waveform parameter" (waveform_values wave))
          (Circuit.Netlist.elements nl);
        List.iter
          (fun (Circuit.Deck.Tran { step; stop }) ->
            require_finite ".tran bound" [ step; stop ])
          d.Circuit.Deck.analyses
  done

(* Byte-mutated net files likewise: [Ok] or [Error], finite pins. *)
let prop_netfile_fuzz g =
  let text = Geom.Netfile.to_string (gen_net g) in
  for _ = 1 to 20 do
    match Geom.Netfile.of_string (mutate g text) with
    | Error _ -> ()
    | Ok net ->
        Array.iter
          (fun (p : Geom.Point.t) -> require_finite "pin coordinate" [ p.x; p.y ])
          (Geom.Net.pins net)
  done

(* Trace equality: LDRG with incremental scoring on picks the identical
   edge sequence, identical rounded objectives and the same evaluation
   count as with it off — on table-2-style nets under every supported
   model. *)

let with_incremental enabled f =
  let prev = Nontree.Incremental.enabled () in
  Nontree.Incremental.set_enabled enabled;
  Fun.protect ~finally:(fun () -> Nontree.Incremental.set_enabled prev) f

(* The MSTs of the table-2 size-5 and size-10 nets, two per size. *)
let table2_msts () =
  let config = { Nontree.Experiment.default with trials = 2 } in
  List.concat_map
    (fun size ->
      Array.to_list
        (Array.map Routing.mst_of_net (Nontree.Experiment.nets config ~size)))
    [ 5; 10 ]

let run_ldrg ~model r =
  Nontree.Oracle.Cache.reset ();
  Nontree.Ldrg.run ~model ~tech r

let trace_signature (t : Nontree.Ldrg.trace) =
  ( List.map (fun s -> s.Nontree.Ldrg.edge) t.Nontree.Ldrg.steps,
    List.map
      (fun s -> Printf.sprintf "%.6g" s.Nontree.Ldrg.objective_after)
      t.Nontree.Ldrg.steps,
    t.Nontree.Ldrg.evaluations )

let sig_testable =
  Alcotest.(triple (list (pair int int)) (list string) int)

let test_trace_equality model () =
  Fault.disable ();
  (* The table-2 size-5 batch: same seed derivation as the experiment
     harness (seed + 1_000_003 * size). *)
  let nets =
    Geom.Netgen.uniform_batch
      ~seed:(1994 + (1_000_003 * 5))
      ~region:(Geom.Rect.square tech.Circuit.Technology.layout_side)
      ~pins:5 ~trials:2
  in
  Array.iter
    (fun net ->
      let r = Routing.mst_of_net net in
      let off = with_incremental false (fun () -> run_ldrg ~model r) in
      let on = with_incremental true (fun () -> run_ldrg ~model r) in
      Alcotest.check sig_testable "identical trace" (trace_signature off)
        (trace_signature on))
    nets

(* The same for wire sizing: [size_greedy] with incremental scoring on
   applies the identical width changes as with it off, on the table-2
   size-5 and size-10 nets. *)
let size_greedy ~model r =
  Nontree.Oracle.Cache.reset ();
  snd (Nontree.Wire_sizing.size_greedy ~model ~tech r)

let test_sizing_trace_equality model () =
  Fault.disable ();
  List.iter
    (fun r ->
      let off = with_incremental false (fun () -> size_greedy ~model r) in
      let on = with_incremental true (fun () -> size_greedy ~model r) in
      Alcotest.(check (list (pair (pair int int) (float 0.0))))
        "identical width changes" off on)
    (table2_msts ())

(* The incremental path must actually engage (and not fall back) on a
   clean run — otherwise the trace tests above compare the plain path
   to itself. *)
let test_incremental_engages () =
  Fault.disable ();
  let net =
    Geom.Netgen.uniform (Rng.create 41)
      ~region:(Geom.Rect.square 10_000.0) ~pins:5
  in
  let r = Routing.mst_of_net net in
  let hits = Obs.Counter.make "oracle.incremental_hits" in
  let fallbacks = Obs.Counter.make "oracle.incremental_fallbacks" in
  let updates = Obs.Counter.make "lu.rank1_updates" in
  let h0 = Obs.Counter.value hits
  and f0 = Obs.Counter.value fallbacks
  and u0 = Obs.Counter.value updates in
  let model = Delay.Model.Spice Delay.Model.fast_spice in
  let trace = with_incremental true (fun () -> run_ldrg ~model r) in
  Alcotest.(check bool) "evaluated something" true (trace.evaluations > 0);
  Alcotest.(check bool) "incremental hits recorded" true
    (Obs.Counter.value hits - h0 > 0);
  Alcotest.(check int) "no fallbacks on a clean run" 0
    (Obs.Counter.value fallbacks - f0);
  Alcotest.(check bool) "rank-1 updates recorded" true
    (Obs.Counter.value updates - u0 > 0)

(* The greedy loop's cutoff is exact. On a random MST of 6 to 15 pins
   under fast SPICE, the first moment and two-pole, each search (LDRG,
   the X6 budget ladder 1.05x to unbounded on one memo, SLDRG from the
   net's Steiner tree, and wire sizing), under the sequential pool and
   a 2-domain pool, takes the same steps to the same routing, with the
   same moves, evaluation count and objective bits, as the same search
   whose scorer ignores every cutoff; each side starts from an empty
   memo. Under SPICE the cut side takes fewer transient steps. *)

let uncut scorer base =
  let score = scorer base in
  fun ~cutoff:_ w -> score ~cutoff:Float.infinity w

let search_signature ((t : Nontree.Ldrg.trace), wires) =
  ( List.map
      (fun (s : Nontree.Ldrg.step) ->
        ( s.edge,
          List.map Int64.bits_of_float
            [ s.objective_before; s.objective_after; s.cost_before;
              s.cost_after ] ))
      t.steps,
    Routing.widths t.final,
    wires,
    t.evaluations )

let prop_cutoff_keeps_searches g =
  Fault.disable ();
  let pins = Rng.int_in g 6 15 in
  let net =
    Geom.Netgen.uniform g
      ~region:(Geom.Rect.square tech.Circuit.Technology.layout_side)
      ~pins
  in
  let mst = Routing.mst_of_net net in
  let adds = Nontree.Ldrg.adds in
  (* Ldrg.run_budgeted's admission rule. *)
  let within ratio r =
    let slack = (ratio *. Routing.cost mst) -. Routing.cost r in
    List.filter
      (fun (u, v) ->
        Geom.Point.manhattan (Routing.point r u) (Routing.point r v) <= slack)
      (Routing.candidate_edges r)
  in
  let searches =
    List.map
      (fun ratio -> (Printf.sprintf "budget %g" ratio, mst, adds (within ratio)))
      [ 1.05; 1.1; 1.2; 1.5 ]
    @ [ ("ldrg", mst, adds Routing.candidate_edges);
        ( "sldrg",
          Nontree.Sldrg.initial_tree net,
          adds Routing.candidate_edges );
        ("sizing", mst, Nontree.Wire_sizing.resizes ~widths:[ 1.0; 2.0; 3.0 ])
      ]
  in
  let run_all pool ~objective scorer =
    Nontree.Oracle.Cache.reset ();
    let s0 = Obs.Counter.value spice_steps in
    let results =
      List.map
        (fun (what, initial, moves) ->
          ( what,
            search_signature
              (Nontree.Ldrg.search ~pool ~moves ~scorer ~objective initial) ))
        searches
    in
    (results, Obs.Counter.value spice_steps - s0)
  in
  with_incremental true @@ fun () ->
  List.iter
    (fun model ->
      let name = Delay.Model.name model in
      let objective = Nontree.Oracle.Cache.max_delay ~model ~tech in
      let cut =
        Nontree.Incremental.make_scorer ~model ~tech ~fallback:objective
      in
      List.iter
        (fun jobs ->
          Pool.with_pool ~jobs @@ fun pool ->
          let exact, exact_steps = run_all pool ~objective (uncut cut) in
          let bounded, bounded_steps = run_all pool ~objective cut in
          List.iter2
            (fun (what, e) (_, b) ->
              if e <> b then
                Alcotest.failf
                  "%s, %d pins, %s, jobs %d: the cut search differs" name pins
                  what jobs)
            exact bounded;
          match model with
          | Delay.Model.Spice _ when bounded_steps >= exact_steps ->
              Alcotest.failf "%d pins, jobs %d: %d steps cut, %d uncut" pins
                jobs bounded_steps exact_steps
          | _ -> ())
        [ 1; 2 ])
    [ Delay.Model.Spice Delay.Model.fast_spice; Delay.Model.First_moment;
      Delay.Model.Two_pole ]

(* Sparse vs dense kernel differentials ---------------------------------- *)

(* A random stamped system, built through the triplet log the way [Mna]
   and the moment oracles stamp: a random connected Laplacian plus ground loads.
   Duplicate stamps are deliberate — summation order is part of the
   contract. *)
let gen_stamped g n =
  let t = Numeric.Sparse.Triplets.create () in
  let connect i j =
    let c = Rng.float_in g 0.5 2.0 in
    Numeric.Sparse.Triplets.add t i i c;
    Numeric.Sparse.Triplets.add t j j c;
    Numeric.Sparse.Triplets.add t i j (-.c);
    Numeric.Sparse.Triplets.add t j i (-.c)
  in
  for i = 1 to n - 1 do
    connect i (Rng.int g i)
  done;
  for _ = 1 to n do
    let i = Rng.int g n and j = Rng.int g n in
    if i <> j then connect i j
  done;
  for i = 0 to n - 1 do
    Numeric.Sparse.Triplets.add t i i (Rng.float_in g 0.1 1.0)
  done;
  t

let materialize_triplets n t =
  let m = Matrix.create n n in
  Numeric.Sparse.Triplets.iter t (fun i j v -> Matrix.add_to m i j v);
  m

(* 200 random stamped systems through both kernels. Most trials are
   well-conditioned and must agree to 1e-9 relative; a slice injects an
   exactly-singular system (a node with no stamps at all — an empty
   row and column) or a non-finite stamp, where both kernels must
   refuse. Exact constructions only: on borderline matrices the two
   kernels may disagree either way, because whether a pivot clears
   their shared 1e-13 floor depends on the pivot order, and the sparse
   verdict is final there. *)
let prop_sparse_matches_dense g =
  let n = Rng.int_in g 2 9 in
  let roll = Rng.int g 8 in
  let stamped_n = if roll = 0 then n - 1 else n in
  let t = gen_stamped g (max 1 stamped_n) in
  if roll = 1 then
    Numeric.Sparse.Triplets.add t (Rng.int g stamped_n) (Rng.int g stamped_n)
      Float.nan;
  let csc = Numeric.Sparse.Csc.of_triplets ~n t in
  let dense = materialize_triplets n t in
  let dense_r = Lu.try_factor dense in
  let sparse_r = Numeric.Sparse.try_factor csc in
  match (dense_r, sparse_r) with
  | Error dk, Error sk ->
      if roll > 1 then
        Alcotest.failf "both kernels rejected a clean system: n=%d" n;
      if roll = 1 && (dk <> -1 || sk <> -1) then
        Alcotest.failf "non-finite flags disagree: dense %d sparse %d" dk sk
  | Ok df, Ok sf ->
      if roll <= 1 then
        Alcotest.failf "both kernels accepted a defective system: n=%d roll=%d"
          n roll;
      let b = gen_vec g n in
      let xd = Lu.solve df b in
      let xs = Numeric.Sparse.solve sf b in
      let err = rel_err xs xd in
      if err > 1e-9 then
        Alcotest.failf "sparse vs dense solve: n=%d rel err %.3e" n err
  | Ok _, Error k ->
      Alcotest.failf "sparse rejected (column %d) what dense accepted: n=%d" k n
  | Error k, Ok _ ->
      Alcotest.failf "sparse accepted what dense rejected (column %d): n=%d" k n

(* The three segmentation profiles the oracles use. *)
let segmentations =
  [ Delay.Model.fast_spice.Delay.Model.segmentation;
    Delay.Model.default_spice.Delay.Model.segmentation;
    Delay.Model.accurate_spice.Delay.Model.segmentation ]

(* A random 5–30-pin MST, plus one wire half the time, with one wire
   resized. *)
let gen_sized_routing g =
  let pins = Rng.int_in g 5 30 in
  let r =
    gen_base g (Geom.Netgen.uniform g ~region:(Geom.Rect.square 10_000.0) ~pins)
  in
  let ws = Routing.widths r in
  let (u, v), _ = List.nth ws (Rng.int g (List.length ws)) in
  Routing.set_width r u v (Rng.float_in g 0.5 3.0)

let same_bits what a b =
  if
    Array.length a <> Array.length b
    || not
         (Array.for_all2
            (fun x y ->
              Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
            a b)
  then failwith (what ^ " differs")

let same_csc what (a : Numeric.Sparse.Csc.t) (b : Numeric.Sparse.Csc.t) =
  if a.colptr <> b.colptr || a.rowind <> b.rowind then
    failwith (what ^ " pattern differs");
  same_bits (what ^ " values") a.values b.values

(* The system stamped straight from a routing is the netlist's, bit for
   bit: on a random routing, under every segmentation profile, RC and
   RLC, [Lumping.system] and [Mna.build] of [circuit_of_routing] agree
   on the unknown counts, [unknown_of_node], the sources, G and C (CSC
   arrays, values by their bits) and the ordering; each wire's chain
   runs between its end vertices through that wire's netlist nodes. *)
let prop_system_matches_netlist g =
  let r = gen_sized_routing g in
  List.iter
    (fun segmentation ->
      List.iter
        (fun include_inductance ->
          let nl, _ =
            Delay.Lumping.circuit_of_routing ~segmentation ~include_inductance
              ~tech r
          in
          let a = Spice.Mna.build nl in
          let { Delay.Lumping.mna = b; chains } =
            Delay.Lumping.system ~segmentation ~include_inductance ~tech r
          in
          let open Spice.Mna in
          if a.size <> b.size || a.num_node_unknowns <> b.num_node_unknowns then
            failwith "unknown counts differ";
          if a.unknown_of_node <> b.unknown_of_node then
            failwith "unknown_of_node differs";
          let sources sys =
            Array.map
              (fun s -> (s.row, Int64.bits_of_float s.sign, s.wave))
              sys.sources
          in
          if sources a <> sources b then failwith "sources differ";
          same_csc "G" a.g_csc b.g_csc;
          same_csc "C" a.c_csc b.c_csc;
          if
            Numeric.Sparse.Symbolic.order a.sym
            <> Numeric.Sparse.Symbolic.order b.sym
          then failwith "ordering differs";
          Array.iter
            (fun ((u, v), chain) ->
              let last = Array.length chain - 1 in
              if chain.(0) <> u || chain.(last) <> v then
                failwith "chain ends differ";
              let prefix = Printf.sprintf "e%d_%d_" u v in
              for s = 1 to last - 1 do
                let name = Circuit.Netlist.node_name nl (chain.(s) + 1) in
                if not (String.starts_with ~prefix name) then
                  failwith
                    (Printf.sprintf "chain node %s is not %s's" name prefix)
              done)
            chains)
        [ false; true ])
    segmentations

(* The transient window a SPICE round gives its routing or an edit of
   it. *)
let spice_window cfg r edit =
  match
    Result.bind
      (Delay.Model.prepare (Delay.Model.Spice cfg) ~tech r)
      (fun round -> Delay.Model.window round edit)
  with
  | Ok w -> w
  | Error e -> failwith (Nontree_error.to_string e)

(* The transient window comes from the system the oracle factors, with
   the dense moment reference ([Moment_ref]) as its check. On a random
   5–30-pin routing with a resized wire and up to three chords, under
   the fast and the default segmentation, RC and RLC: G⁻¹c of the MNA
   system is the reference's first moment at every sink, and a round's
   window for a random edit (an added or a widened wire) is the plain
   window of the edited routing, each to 1e-12 relative. *)
let prop_window_from_mna g =
  Fault.disable ();
  let r =
    List.fold_left
      (fun r _ ->
        match Routing.candidate_edges r with
        | [] -> r
        | cands ->
            let u, v = List.nth cands (Rng.int g (List.length cands)) in
            Routing.add_edge r u v)
      (gen_sized_routing g)
      (List.init (Rng.int g 4) Fun.id)
  in
  let edit, trial = gen_edit g r in
  let close what a b =
    if not (abs_float (a -. b) <= 1e-12 *. abs_float b) then
      failwith (Printf.sprintf "%s: %h vs %h" what a b)
  in
  let m1_ref = Moment_ref.first_moments ~tech r in
  let first_moments cfg r =
    let l =
      Delay.Lumping.system ~segmentation:cfg.Delay.Model.segmentation
        ~include_inductance:cfg.Delay.Model.include_inductance ~tech r
    in
    match Spice.Engine.prepare_result l.Delay.Lumping.mna with
    | Ok p -> p.Spice.Engine.m1
    | Error e -> failwith (Nontree_error.to_string e)
  in
  List.iter
    (fun cfg ->
      List.iter
        (fun include_inductance ->
          let cfg = { cfg with Delay.Model.include_inductance } in
          let m1 = first_moments cfg r in
          List.iter
            (fun v ->
              close (Printf.sprintf "sink %d first moment" v) m1.(v) m1_ref.(v))
            (Routing.sinks r);
          let plain = spice_window cfg trial None in
          close (edit_to_string edit ^ " window")
            (spice_window cfg r (Some edit))
            plain)
        [ false; true ])
    [ Delay.Model.fast_spice; Delay.Model.default_spice ]

(* The plain SPICE oracle, which simulates the system stamped straight
   from the routing, reports bit for bit the delays the engine gives
   the routing's netlist at the window the oracle used (from the first
   moments of the system it factors), under the fast and the default
   profile, RC and RLC. *)
let prop_plain_oracle_matches_netlist g =
  Fault.disable ();
  let r = gen_sized_routing g in
  List.iter
    (fun cfg ->
      List.iter
        (fun include_inductance ->
          let cfg = { cfg with Delay.Model.include_inductance } in
          let oracle =
            match
              Delay.Model.sink_delays_result (Delay.Model.Spice cfg) ~tech r
            with
            | Ok ds -> List.map snd ds
            | Error e -> failwith (Nontree_error.to_string e)
          in
          let nl, probes =
            Delay.Lumping.circuit_of_routing
              ~segmentation:cfg.Delay.Model.segmentation ~include_inductance
              ~tech r
          in
          let horizon = spice_window cfg r None in
          let netlist =
            match
              Spice.Engine.threshold_delays_result
                ~options:cfg.Delay.Model.options nl ~probes ~horizon
            with
            | Ok ds -> List.map (fun (_, d) -> Option.get d) ds
            | Error e -> failwith (Nontree_error.to_string e)
          in
          same_bits "delays" (Array.of_list oracle) (Array.of_list netlist))
        [ false; true ])
    [ Delay.Model.fast_spice; Delay.Model.default_spice ]

(* The stamps of every added wire (fresh interior unknowns) and every
   resized one (to a random width, on the wire's own chain) an
   incremental round scores on the lowered routing [l] of [r]. *)
let round_edits g ~segmentation r (l : Delay.Lumping.system) =
  let n = l.Delay.Lumping.mna.Spice.Mna.size in
  let segments length width =
    Delay.Lumping.pi_segments ~segmentation ~tech ~length ~width
  in
  let adds =
    List.map
      (fun (u, v) ->
        let length =
          Geom.Point.manhattan (Routing.point r u) (Routing.point r v)
        in
        let n_seg, seg_r, seg_c = segments length 1.0 in
        let chain =
          Array.init (n_seg + 1) (fun s ->
              if s = 0 then u else if s = n_seg then v else n + s - 1)
        in
        Test_spice.chain_stamps ~added:(n_seg - 1) chain ~seg_g:(1.0 /. seg_r)
          ~seg_c)
      (Routing.candidate_edges r)
  in
  let resizes =
    Array.to_list
      (Array.map
         (fun ((u, v), chain) ->
           let length = Routing.edge_length r u v in
           let _, r0, c0 = segments length (Routing.width r u v) in
           let _, r1, c1 = segments length (Rng.float_in g 0.5 3.0) in
           Test_spice.chain_stamps ~added:0 chain
             ~seg_g:((1.0 /. r1) -. (1.0 /. r0))
             ~seg_c:(c1 -. c0))
         l.Delay.Lumping.chains)
  in
  adds @ resizes

(* A random 5–30-pin round base: its MST or, half the time, the MST
   plus one wire (a second LDRG round's base, whose cycle fills). *)
let gen_round g =
  let pins = Rng.int_in g 5 30 in
  gen_base g (Geom.Netgen.uniform g ~region:(Geom.Rect.square 10_000.0) ~pins)

(* Whether the companion's factor is [full]'s bit for bit, or both
   refused the same column. *)
let companion_agrees ?stamps pattern ~dt full =
  match
    ( full,
      Spice.Transient.with_companion ?stamps pattern ~dt (fun cp ->
          match full with
          | Ok f -> Test_numeric.same_factors f (Spice.Transient.factor cp)
          | Error _ -> false) )
  with
  | Ok _, Ok same -> same
  | Error k1, Error k2 -> k1 = k2
  | _ -> false

(* A round's compiled pattern, with the plan of its G factorisation. *)
let round_pattern (sys : Spice.Mna.t) =
  match
    Numeric.Sparse.try_factor_with_plan ~symbolic:sys.Spice.Mna.sym
      sys.Spice.Mna.g_csc
  with
  | Ok (_, plan) ->
      Spice.Transient.with_plan (Spice.Transient.compile sys) plan
  | Error k -> failwith (Printf.sprintf "G refused at column %d" k)

(* Every companion an incremental round factors, refactored on the
   plan of its round's G factorisation, is the full kernel's
   factorisation bit for bit: each Add and Resize companion of a random
   5–30-pin base at a random timestep. Under the fast profile an added
   wire appends one unknown and refactors; under the default profile it
   appends several and declines. *)
let prop_refactor_matches_full g =
  let r = gen_round g in
  let pins = Routing.num_terminals r in
  let segmentation =
    if Rng.bool g then Delay.Model.fast_spice.Delay.Model.segmentation
    else Delay.Lumping.default_segmentation
  in
  let l =
    Delay.Lumping.system ~segmentation ~include_inductance:false ~tech r
  in
  let sys = l.Delay.Lumping.mna in
  let open Numeric.Sparse in
  let round = round_pattern sys in
  let dt = 10.0 ** Rng.float_in g (-13.0) (-9.0) in
  let (), counts =
    Test_numeric.counting Test_numeric.refactor_counters (fun () ->
        List.iter
          (fun (stamps : Spice.Transient.stamps) ->
            let lhs, _ = Spice.Transient.assemble ~stamps round ~dt in
            let grown s = Symbolic.extend s stamps.Spice.Transient.added in
            let full = try_factor ~symbolic:(grown sys.Spice.Mna.sym) lhs in
            if not (companion_agrees ~stamps round ~dt full) then
              failwith
                (Printf.sprintf "refactor differs: %d pins, dt %h" pins dt))
          (round_edits g ~segmentation r l))
  in
  match counts with
  | [ refactors; _; _ ] when refactors > 0 -> ()
  | _ -> failwith "no companion refactored"

let same_csc what (a : Numeric.Sparse.Csc.t) (b : Numeric.Sparse.Csc.t) =
  let open Numeric.Sparse.Csc in
  let nz = nnz a in
  let bits v = Array.map Int64.bits_of_float (Array.sub v 0 nz) in
  if
    not
      (rows a = rows b && nnz b = nz && a.colptr = b.colptr
      && Array.sub a.rowind 0 nz = Array.sub b.rowind 0 nz
      && bits a.values = bits b.values)
  then failwith (what ^ ": compiled companion differs from the reference")

(* The compiled round end to end: on a random 5–30-pin base under the
   fast and the default segmentation, every Add and Resize companion at
   a random timestep, written into the round's compiled pattern, equals
   the reference sort-merge assembly entry for entry, bit for bit (both
   sides), and its factor — refactored on the round's plan, or the full
   kernel where that declines — is the full kernel's on the reference
   matrix, through [Sparse.parts]. Three companions must decline: one
   whose wire segment cancels to an exact zero, one whose first
   eliminated column's diagonal shrinks until the pivot rule picks
   another row, and an addition that appends two unknowns (a default-
   profile wire of three segments). *)
let prop_compiled_round_matches_reference g =
  let r = gen_round g in
  let dt = 10.0 ** Rng.float_in g (-13.0) (-9.0) in
  let open Numeric.Sparse in
  List.iter
    (fun segmentation ->
      let l =
        Delay.Lumping.system ~segmentation ~include_inductance:false ~tech r
      in
      let sys = l.Delay.Lumping.mna in
      let n = sys.Spice.Mna.size in
      let round = round_pattern sys in
      let check ?(declines = false) what (stamps : Spice.Transient.stamps) =
        let ref_lhs, ref_rhs = Assemble.companion ~stamps sys ~dt in
        let lhs, rhs = Spice.Transient.assemble ~stamps round ~dt in
        same_csc (what ^ " iteration matrix") lhs ref_lhs;
        same_csc (what ^ " explicit side") rhs ref_rhs;
        let full =
          try_factor
            ~symbolic:(Symbolic.extend sys.Spice.Mna.sym stamps.added)
            ref_lhs
        in
        let agrees, counts =
          Test_numeric.counting Test_numeric.refactor_counters (fun () ->
              companion_agrees ~stamps round ~dt full)
        in
        if not agrees then
          failwith (what ^ ": factor differs from the full kernel's");
        match counts with
        | [ 0; 1; _ ] when declines -> ()
        | _ when declines -> failwith (what ^ ": did not decline")
        | _ -> ()
      in
      List.iter (check "edit") (round_edits g ~segmentation r l);
      let g_entry i j =
        let c = sys.Spice.Mna.g_csc in
        let open Numeric.Sparse.Csc in
        let rec find p =
          if p >= c.colptr.(j + 1) then 0.0
          else if c.rowind.(p) = i then c.values.(p)
          else find (p + 1)
        in
        find c.colptr.(j)
      in
      let stamp i j value = { Spice.Transient.i; j; value } in
      let only_g g = { Spice.Transient.added = 0; g; c = [||] } in
      (* A segment removed by its own negation: (a, b) and (b, a) sum to
         an exact zero. *)
      let (_, chain) = l.Delay.Lumping.chains.(0) in
      check ~declines:true "cancelled segment"
        (only_g [| stamp chain.(0) chain.(1) (g_entry chain.(0) chain.(1)) |]);
      (* The first eliminated column's diagonal at a thousandth of
         itself: a neighbour wins the threshold pivot. *)
      let q0 = (Symbolic.order sys.Spice.Mna.sym).(0) in
      let c_entry =
        let c = sys.Spice.Mna.c_csc in
        let open Numeric.Sparse.Csc in
        let rec find p =
          if p >= c.colptr.(q0 + 1) then 0.0
          else if c.rowind.(p) = q0 then c.values.(p)
          else find (p + 1)
        in
        find c.colptr.(q0)
      in
      let d = g_entry q0 q0 +. (2.0 /. dt *. c_entry) in
      if d > 0.0 then
        check ~declines:true "moved pivot"
          (only_g [| stamp q0 (-1) (-0.999 *. d) |]);
      (* Two appended unknowns. *)
      let u, v = List.hd (Routing.candidate_edges r) in
      check ~declines:true "two appended unknowns"
        (Test_spice.chain_stamps ~added:2 [| u; n; n + 1; v |] ~seg_g:1e-3
           ~seg_c:1e-14))
    [ Delay.Model.fast_spice.Delay.Model.segmentation;
      Delay.Lumping.default_segmentation ]

(* [Transient.loop] on one companion of [pattern] ([stamps] on it, at
   [dt]) against the reference stepper on the same factor's
   reference matrices: every step's time and full state, bit for bit,
   and the returned state. The loop runs [stop] steps, stops, and
   continues from the state it returned for the rest, and the reference
   runs the same two calls. *)
let loop_matches_reference ?stamps ?(stop = 7) ~what pattern ~dt ~x0 =
  let sys = Spice.Transient.system pattern in
  let lhs, rhs = Assemble.companion ?stamps sys ~dt in
  let added =
    match stamps with Some s -> s.Spice.Transient.added | None -> 0
  in
  let lu =
    match
      Numeric.Sparse.try_factor
        ~symbolic:(Numeric.Sparse.Symbolic.extend sys.Spice.Mna.sym added)
        lhs
    with
    | Ok lu -> lu
    | Error k -> failwith (Printf.sprintf "%s: refused at column %d" what k)
  in
  let n = Array.length x0 in
  let probes = Array.init n Fun.id in
  let bits a = Array.map Int64.bits_of_float a in
  let steps = 19 in
  let compare_run ~x0 ~t0 ~steps ~stop_at (times, states) =
    Result.get_ok
    @@ Spice.Transient.with_companion ?stamps pattern ~dt
    @@ fun cp ->
    let seen = ref 0 in
    let final, taken =
      Spice.Transient.loop cp ~x0 ~t0 ~steps ~probes ~on_step:(fun t v ->
          let s = !seen in
          if
            Int64.bits_of_float t <> Int64.bits_of_float times.(s)
            || bits v <> bits states.(s)
          then failwith (Printf.sprintf "%s: step %d differs" what s);
          incr seen;
          !seen = stop_at)
    in
    if taken <> stop_at || bits final <> bits states.(taken - 1) then
      failwith (what ^ ": final state differs");
    (final, t0 +. (float_of_int taken *. dt))
  in
  let first = Stepper.run sys lu rhs ~dt ~x0 ~t0:0.0 ~steps:stop in
  let x0, t0 = compare_run ~x0 ~t0:0.0 ~steps ~stop_at:stop first in
  let rest = Stepper.run sys lu rhs ~dt ~x0 ~t0 ~steps:(steps - stop) in
  ignore
    (compare_run ~x0 ~t0 ~steps:(steps - stop) ~stop_at:(steps - stop) rest)

(* The step loop in elimination order is the reference stepping bit
   for bit: on a random 5–30-pin round under the fast and the default
   segmentation, its plain companion and every Add and Resize
   companion (those the plan refactors, with the round's layout of C,
   and those it declines, on the full kernel's permutations), from a
   random state at a random timestep. *)
let prop_loop_matches_reference g =
  let r = gen_round g in
  let dt = 10.0 ** Rng.float_in g (-12.0) (-10.0) in
  List.iter
    (fun segmentation ->
      let l =
        Delay.Lumping.system ~segmentation ~include_inductance:false ~tech r
      in
      let sys = l.Delay.Lumping.mna in
      let round = round_pattern sys in
      let state n = Array.init n (fun _ -> Rng.float_in g (-1.0) 1.0) in
      loop_matches_reference ~what:"plain" round ~dt
        ~x0:(state sys.Spice.Mna.size);
      List.iter
        (fun (stamps : Spice.Transient.stamps) ->
          loop_matches_reference ~stamps ~what:"edit" round ~dt
            ~x0:(state (sys.Spice.Mna.size + stamps.added)))
        (round_edits g ~segmentation r l))
    [ Delay.Model.fast_spice.Delay.Model.segmentation;
      Delay.Lumping.default_segmentation ]

(* The same on decks outside the routing shape: two sources summed on
   one row (a voltage source's branch row is its own; two current
   sources into one node share it), and node-to-node capacitors, whose
   C is not diagonal (a row of three terms, so their order shows) and
   whose pattern keeps no plan. *)
let test_loop_matches_reference_decks () =
  List.iter
    (fun (what, deck) ->
      match Circuit.Deck.of_string deck with
      | Error e -> Alcotest.fail e
      | Ok nl ->
          let sys = Spice.Mna.build nl in
          let p =
            match Spice.Engine.prepare_result sys with
            | Ok p -> p
            | Error e -> Alcotest.fail (Nontree_error.to_string e)
          in
          List.iter
            (fun stop ->
              loop_matches_reference ~stop ~what p.Spice.Engine.pattern
                ~dt:7e-11 ~x0:p.Spice.Engine.x0)
            [ 1; 7; 18 ])
    [ ( "two sources on one row",
        "* two sources\n\
         V1 in 0 PULSE(0 1 0.1n 0.2n 0.2n 1n 3n)\n\
         R1 in a 1k\n\
         I1 0 a PWL(0 0 0.3n 1m 0.9n -0.5m)\n\
         I2 0 a RAMP(0.2n 0.6n 0 0.25m)\n\
         C1 a 0 1p\n\
         R2 a b 2k\n\
         C2 b 0 0.5p\n\
         .end\n" );
      ( "node-to-node capacitors",
        "* node-to-node capacitors\n\
         V1 in 0 PULSE(0 1 0 0.01n 0.01n 50n 100n)\n\
         R1 in a 1k\n\
         C1 a b 0.3p\n\
         R2 b 0 2k\n\
         C2 b 0 1p\n\
         C3 a 0 0.2p\n\
         R3 b c 1.5k\n\
         C4 a c 0.7p\n\
         C5 c 0 0.4p\n\
         .end\n" ) ]

(* The fill-reducing ordering is a permutation of the columns for any
   pattern — asymmetric stamps, empty rows, disconnected components. *)
let prop_ordering_is_permutation g =
  let n = Rng.int_in g 1 12 in
  let t = Numeric.Sparse.Triplets.create () in
  let entries = Rng.int g (3 * n) in
  for _ = 1 to entries do
    Numeric.Sparse.Triplets.add t (Rng.int g n) (Rng.int g n)
      (Rng.float_in g (-1.0) 1.0)
  done;
  let sym = Numeric.Sparse.analyze (Numeric.Sparse.Csc.of_triplets ~n t) in
  let order = Numeric.Sparse.Symbolic.order sym in
  if Array.length order <> n then
    Alcotest.failf "order length %d <> n=%d" (Array.length order) n;
  let seen = Array.make n false in
  Array.iter
    (fun c ->
      if c < 0 || c >= n || seen.(c) then
        Alcotest.failf "not a permutation at column %d (n=%d)" c n;
      seen.(c) <- true)
    order

(* Incremental results land in the oracle cache: replaying an
   incremental run picks the same trace and is all cache hits. *)
let test_incremental_feeds_cache () =
  Fault.disable ();
  let net =
    Geom.Netgen.uniform (Rng.create 43)
      ~region:(Geom.Rect.square 10_000.0) ~pins:5
  in
  let r = Routing.mst_of_net net in
  let model = Delay.Model.First_moment in
  let module C = Nontree.Oracle.Cache in
  let prev = C.enabled () in
  C.reset ();
  C.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      C.set_enabled prev;
      C.reset ())
    (fun () ->
      let scored = Obs.Counter.make "oracle.incremental_hits" in
      let i0 = Obs.Counter.value scored in
      let first =
        with_incremental true (fun () -> Nontree.Ldrg.run ~model ~tech r)
      in
      let s1 = C.stats () and i1 = Obs.Counter.value scored in
      Alcotest.(check bool) "the run scored incrementally" true (i1 > i0);
      let replay =
        with_incremental true (fun () -> Nontree.Ldrg.run ~model ~tech r)
      in
      let s2 = C.stats () in
      Alcotest.check sig_testable "same trace" (trace_signature first)
        (trace_signature replay);
      Alcotest.(check int) "replay is all cache hits" 0
        (s2.C.misses - s1.C.misses);
      Alcotest.(check int) "replay scores nothing afresh" i1
        (Obs.Counter.value scored);
      Alcotest.(check bool) "incremental scores answered the replay" true
        (s2.C.hits - s1.C.hits >= i1 - i0))

(* Incremental scores are memoised as edit entries: after an LDRG
   run, a plain lookup of a scored trial misses and returns the robust
   oracle's value bit for bit, not the incremental score. *)
let test_incremental_scores_stay_out_of_plain_lookups () =
  Fault.disable ();
  let net =
    Geom.Netgen.uniform (Rng.create 43)
      ~region:(Geom.Rect.square 10_000.0) ~pins:5
  in
  let r = Routing.mst_of_net net in
  let model = Delay.Model.Spice Delay.Model.fast_spice in
  let module C = Nontree.Oracle.Cache in
  let prev = C.enabled () in
  C.reset ();
  C.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      C.set_enabled prev;
      C.reset ())
    (fun () ->
      let hits = Obs.Counter.make "oracle.incremental_hits" in
      let h0 = Obs.Counter.value hits in
      let trace =
        with_incremental true (fun () -> Nontree.Ldrg.run ~model ~tech r)
      in
      Alcotest.(check bool) "the round was scored incrementally" true
        (Obs.Counter.value hits > h0);
      let u, v = List.hd (Routing.candidate_edges trace.Nontree.Ldrg.initial) in
      let trial = Routing.add_edge trace.Nontree.Ldrg.initial u v in
      let s0 = C.stats () in
      let cached = C.sink_delays ~model ~tech trial in
      let s1 = C.stats () in
      Alcotest.(check int) "plain lookup of a scored trial misses" 1
        (s1.C.misses - s0.C.misses);
      Alcotest.(check int) "and does not hit" 0 (s1.C.hits - s0.C.hits);
      Alcotest.(check bool) "value is the robust oracle's, bit for bit" true
        (cached = Delay.Robust.sink_delays_exn ~model ~tech trial))

(* Full-kernel factorisations: a plan refactor (every fast-profile
   companion, on both paths) replays its G factorisation's plan instead. *)
let full_factorizations () =
  Obs.Counter.value (Obs.Counter.make "sparse.factorizations")
  - Obs.Counter.value (Obs.Counter.make "sparse.refactors")

(* Incremental scoring factors each round's base once instead of every
   candidate's G: on the table-2 size-5 and size-10 nets it must run at
   most a fifteenth of the full-kernel factorisations of the plain
   objective, whose every evaluation factors its own G (13 against 259
   as of this writing). Both paths also refactor one companion per
   simulated evaluation on a plan, so the plain objective, at
   two factorisations per evaluation, must need at least 1.5x the
   incremental path's factorisations in all (518 against 272). *)
let test_incremental_cuts_factorizations () =
  Fault.disable ();
  let model = Nontree.Experiment.default.Nontree.Experiment.search_model in
  let factorizations = Obs.Counter.make "sparse.factorizations" in
  let count run =
    Nontree.Oracle.Cache.reset ();
    let f0 = Obs.Counter.value factorizations and k0 = full_factorizations () in
    List.iter (fun r -> ignore (run r)) (table2_msts ());
    (Obs.Counter.value factorizations - f0, full_factorizations () - k0)
  in
  let incremental, incremental_full =
    with_incremental true (fun () -> count (Nontree.Ldrg.run ~model ~tech))
  in
  let plain, plain_full =
    count (fun r ->
        Nontree.Ldrg.run_objective
          ~objective:(Nontree.Oracle.Cache.max_delay ~model ~tech) r)
  in
  if plain_full < 15 * incremental_full || 2 * plain < 3 * incremental then
    Alcotest.failf
      "sparse.factorizations: incremental %d (%d full), plain %d (%d full)"
      incremental incremental_full plain plain_full

(* Wire sizing likewise: scoring each round's width trials as resize
   edits of one factored base must need at most a fifth of the
   full-kernel factorisations per evaluation of the plain objective,
   which factors G, once for DC, settle and window, for every trial
   (0.16 against 1.00), and at most 1/1.5 of its factorisations in all
   (1.16 against 2.00). Evaluations are memo lookups on both paths. *)
let test_sizing_cuts_factorizations () =
  Fault.disable ();
  let model = Nontree.Experiment.default.Nontree.Experiment.search_model in
  let factorizations = Obs.Counter.make "sparse.factorizations" in
  let module C = Nontree.Oracle.Cache in
  let per_eval enabled =
    with_incremental enabled (fun () ->
        C.reset ();
        let f0 = Obs.Counter.value factorizations
        and k0 = full_factorizations () in
        List.iter
          (fun r -> ignore (Nontree.Wire_sizing.size_greedy ~model ~tech r))
          (table2_msts ());
        let s = C.stats () in
        let per n = float_of_int n /. float_of_int (s.C.hits + s.C.misses) in
        ( per (Obs.Counter.value factorizations - f0),
          per (full_factorizations () - k0) ))
  in
  let incremental, incremental_full = per_eval true in
  let plain, plain_full = per_eval false in
  if plain_full < 5.0 *. incremental_full || plain < 1.5 *. incremental then
    Alcotest.failf
      "sparse.factorizations per evaluation: incremental %.2f (%.2f full), \
       plain %.2f (%.2f full)"
      incremental incremental_full plain plain_full

(* Edge-map order ----------------------------------------------------- *)

(* A random connected routing on 2-12 vertices: a random spanning tree
   plus a few extra wires, each added with its endpoints in either
   order, and a random width on about a third of its wires. The
   reference orders every vertex pair by polymorphic [compare]: the
   edge maps' int-pair order must list edges, widths and candidates
   exactly so. *)
let prop_edge_order_matches_compare g =
  let n = Rng.int_in g 2 12 in
  let points =
    Array.init n (fun i ->
        Geom.Point.make (float_of_int i *. 7.0) (Rng.float_in g 0.0 100.0))
  in
  let pairs = ref [] in
  let connect u v =
    let key = (min u v, max u v) in
    if u <> v && not (List.mem key (List.map fst !pairs)) then
      pairs := (key, if Rng.bool g then (u, v) else (v, u)) :: !pairs
  in
  for v = 1 to n - 1 do
    connect (Rng.int g v) v
  done;
  for _ = 1 to Rng.int g (n + 1) do
    connect (Rng.int g n) (Rng.int g n)
  done;
  let added = Array.of_list (List.map snd !pairs) in
  Rng.shuffle g added;
  let r =
    Routing.with_points ~source:0 ~num_terminals:n points
      (Array.to_list added)
  in
  let r, widths =
    List.fold_left
      (fun (r, acc) (u, v) ->
        if Rng.int g 3 = 0 then begin
          let w = Rng.float_in g 0.5 3.0 in
          let a, b = if Rng.bool g then (u, v) else (v, u) in
          (Routing.set_width r a b w, ((u, v), w) :: acc)
        end
        else (r, acc))
      (r, [])
      (List.map fst !pairs)
  in
  let canon = List.sort compare (List.map fst !pairs) in
  let listed =
    List.map
      (fun (e : Graphs.Wgraph.edge) -> (e.u, e.v))
      (Graphs.Wgraph.edges (Routing.graph r))
  in
  if listed <> canon then Alcotest.fail "Wgraph.edges out of compare order";
  let expected_widths =
    List.map
      (fun key ->
        (key, Option.value (List.assoc_opt key widths) ~default:1.0))
      canon
  in
  if Routing.widths r <> expected_widths then
    Alcotest.fail "Routing.widths out of compare order";
  let absent = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u < v && not (List.mem (u, v) canon) then absent := (u, v) :: !absent
    done
  done;
  if Routing.candidate_edges r <> List.sort compare !absent then
    Alcotest.fail "Routing.candidate_edges out of compare order"

let suites =
  [ ( "prop",
      [ Alcotest.test_case "woodbury matches fresh LU (200 pairs)" `Quick
          (fun () ->
            check ~trials:200 "woodbury-vs-fresh" prop_woodbury_matches_fresh);
        Alcotest.test_case "near-singular updates rejected" `Quick
          (fun () ->
            check ~trials:100 "near-singular" prop_near_singular_rejected);
        Alcotest.test_case "incremental moments match rebuild" `Quick
          (fun () ->
            check ~trials:60 "moments-differential"
              prop_incremental_moments_match_rebuild);
        Alcotest.test_case "incremental spice matches plain oracle" `Quick
          (fun () ->
            check ~trials:40 "spice-differential"
              prop_incremental_spice_matches_plain);
        Alcotest.test_case "scan stops without moving crossings" `Quick
          (fun () ->
            check ~trials:40 "scan-early-stop"
              prop_scan_stops_without_moving_crossings);
        Alcotest.test_case "scan cutoff is exact or a bound" `Quick
          (fun () ->
            check ~trials:40 "scan-cutoff" prop_scan_cutoff_exact_or_bound);
        Alcotest.test_case "sparse matches dense (200 stamped systems)" `Quick
          (fun () ->
            check ~trials:200 "sparse-vs-dense" prop_sparse_matches_dense);
        Alcotest.test_case "deck parser fuzz" `Quick (fun () ->
            check ~trials:100 "deck-fuzz" prop_deck_fuzz);
        Alcotest.test_case "net file parser fuzz" `Quick (fun () ->
            check ~trials:100 "netfile-fuzz" prop_netfile_fuzz);
        Alcotest.test_case "refactor matches full factor bitwise" `Quick
          (fun () ->
            check ~trials:12 "refactor-vs-full" prop_refactor_matches_full);
        Alcotest.test_case "compiled round matches reference assembly bitwise"
          `Quick (fun () ->
            check ~trials:12 "compiled-round"
              prop_compiled_round_matches_reference);
        Alcotest.test_case "loop matches reference stepping bitwise" `Quick
          (fun () ->
            check ~trials:8 "loop-vs-reference" prop_loop_matches_reference;
            test_loop_matches_reference_decks ());
        Alcotest.test_case "routing system equals netlist build bitwise" `Quick
          (fun () ->
            check ~trials:30 "system-vs-netlist" prop_system_matches_netlist);
        Alcotest.test_case "window from the factored MNA system" `Quick
          (fun () -> check ~trials:60 "window-from-mna" prop_window_from_mna);
        Alcotest.test_case "plain oracle equals netlist threshold bitwise"
          `Quick (fun () ->
            check ~trials:6 "oracle-vs-netlist"
              prop_plain_oracle_matches_netlist);
        Alcotest.test_case "edge maps list in compare order" `Quick
          (fun () ->
            check ~trials:200 "edge-order" prop_edge_order_matches_compare);
        Alcotest.test_case "sparse ordering is a permutation" `Quick
          (fun () ->
            check ~trials:200 "ordering-permutation"
              prop_ordering_is_permutation);
        Alcotest.test_case "ldrg trace equal, first-moment" `Quick
          (test_trace_equality Delay.Model.First_moment);
        Alcotest.test_case "ldrg trace equal, two-pole" `Quick
          (test_trace_equality Delay.Model.Two_pole);
        Alcotest.test_case "ldrg trace equal, spice" `Slow
          (test_trace_equality (Delay.Model.Spice Delay.Model.fast_spice));
        Alcotest.test_case "cutoff keeps every search's trace" `Quick
          (fun () -> check ~trials:4 "cutoff-searches" prop_cutoff_keeps_searches);
        Alcotest.test_case "incremental path engages" `Slow
          test_incremental_engages;
        Alcotest.test_case "incremental feeds the oracle cache" `Quick
          test_incremental_feeds_cache;
        Alcotest.test_case "incremental scores stay out of plain lookups" `Quick
          test_incremental_scores_stay_out_of_plain_lookups;
        Alcotest.test_case "incremental cuts sparse factorizations 2x" `Quick
          test_incremental_cuts_factorizations;
        Alcotest.test_case "sizing trace equal, first-moment" `Quick
          (test_sizing_trace_equality Delay.Model.First_moment);
        Alcotest.test_case "sizing trace equal, spice" `Slow
          (test_sizing_trace_equality
             (Delay.Model.Spice Delay.Model.fast_spice));
        Alcotest.test_case "sizing cuts sparse factorizations 2x" `Quick
          test_sizing_cuts_factorizations ] ) ]
