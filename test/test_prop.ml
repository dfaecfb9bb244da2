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
   exactly the shape [Delay.Moments.conductance_matrix] produces, and
   comfortably well-conditioned at these sizes. *)
let gen_spd g n =
  let a = Numeric.Matrix.create n n in
  let connect i j =
    let c = Rng.float_in g 0.5 2.0 in
    Numeric.Matrix.add_to a i i c;
    Numeric.Matrix.add_to a j j c;
    Numeric.Matrix.add_to a i j (-.c);
    Numeric.Matrix.add_to a j i (-.c)
  in
  for i = 1 to n - 1 do
    connect i (Rng.int g i)
  done;
  for _ = 1 to n do
    let i = Rng.int g n and j = Rng.int g n in
    if i <> j then connect i j
  done;
  for i = 0 to n - 1 do
    Numeric.Matrix.add_to a i i (Rng.float_in g 0.1 1.0)
  done;
  a

let gen_vec g n = Array.init n (fun _ -> Rng.float_in g (-1.0) 1.0)

let gen_net g =
  let pins = Rng.int_in g 4 9 in
  Geom.Netgen.uniform g ~region:(Geom.Rect.square 10_000.0) ~pins

(* Dense reference: A plus one conductance g between unknowns i and j,
   built explicitly. *)
let dense_with_conductance a i j g =
  let m = Numeric.Matrix.copy a in
  Numeric.Matrix.add_to m i i g;
  Numeric.Matrix.add_to m j j g;
  Numeric.Matrix.add_to m i j (-.g);
  Numeric.Matrix.add_to m j i (-.g);
  m

let rel_err x y =
  let scale = Float.max 1.0 (Numeric.Vec.norm_inf y) in
  Numeric.Vec.max_abs_diff x y /. scale

let factor_sparse a = Numeric.Sparse.factor (Numeric.Sparse.Csc.of_matrix a)

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
  match Numeric.Sparse.with_conductance (factor_sparse a) i j c with
  | None -> ()
  | Some solve ->
      let x = solve b in
      let fresh =
        Numeric.Lu.solve_matrix (dense_with_conductance a i j c) b
      in
      let err = rel_err x fresh in
      if err > 1e-9 then
        Alcotest.failf "rank-1 vs fresh: n=%d (%d,%d) g=%g rel err %.3e" n i
          j c err

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
  match Numeric.Sparse.with_conductance f i j c with
  | None -> ()
  | Some _ ->
      Alcotest.failf "singularising update accepted: n=%d (%d,%d) g=%h" n i j
        c

(* A random absent edge of [r] added, with the trial routing it
   yields; [None] when [r] is complete. *)
let gen_add g r =
  match Routing.candidate_edges r with
  | [] -> None
  | cands ->
      let u, v = List.nth cands (Rng.int g (List.length cands)) in
      Some (Nontree.Incremental.Add (u, v), Routing.add_edge r u v)

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
      (Nontree.Incremental.Resize ((u, v), w), Routing.set_width r u v w)

let edit_to_string = function
  | Nontree.Incremental.Add (u, v) -> Printf.sprintf "add (%d,%d)" u v
  | Nontree.Incremental.Resize ((u, v), w) ->
      Printf.sprintf "resize (%d,%d) to %g" u v w

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

(* The per-sink delays the scorer gives one edit of [r], read back from
   its memo entry, keyed by [r]'s round digest and the edit (a fresh
   memo, so the entry is this score's); fails the test on a fallback. *)
let incremental_delays ~model r edit trial =
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
      match Nontree.Incremental.make_scorer ~model ~tech ~fallback r with
      | None -> Alcotest.failf "no scorer for %s" (Delay.Model.name model)
      | Some score ->
          ignore (score edit trial);
          C.memo_edit (C.round ~model ~tech r)
            (Nontree.Incremental.edit_key edit)
            (fun () -> Alcotest.fail "the score was not memoised"))

(* Every sink's incremental delay matches the plain oracle's on the
   rebuilt trial to 1e-9 of the largest. *)
let check_edit_delays ~model ~what r edit trial =
  let inc = incremental_delays ~model r edit trial in
  let plain = Delay.Robust.sink_delays_exn ~model ~tech trial in
  let scale = List.fold_left (fun acc (_, d) -> Float.max acc d) 0.0 plain in
  List.iter2
    (fun (s, di) (s', dp) ->
      if s <> s' then Alcotest.failf "sink order %d vs %d" s s';
      let err = abs_float (di -. dp) /. scale in
      if err > 1e-9 then
        Alcotest.failf "%s %s, %s, sink %d: incremental %h vs plain %h (%.3e)"
          what (Delay.Model.name model) (edit_to_string edit) s di dp err)
    inc plain

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
let full_window_scan (options : Spice.Engine.options) sys ~idx ~x0 ~xf ~horizon
    =
  let target =
    Array.map (fun u -> x0.(u) +. (0.5 *. (xf.(u) -. x0.(u)))) idx
  in
  let found =
    Array.mapi
      (fun p u -> if x0.(u) >= target.(p) then Some 0.0 else None)
      idx
  in
  let dt = horizon /. float_of_int options.steps_per_chunk in
  let t_ref = Spice.Engine.input_reference sys ~method_:options.method_ ~dt in
  let cp = Spice.Transient.companion sys ~method_:options.method_ ~dt in
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

(* On a random table-2 net (half the time with one added wire) under
   the fast or default profile, the engine's scan, whose chunks stop at
   the last crossing, reports crossings bit-identical to the
   full-window reference. A quarter of the trials start from a horizon
   50x too short, so the crossings land in a doubled extension chunk;
   a quarter start one sink at its settled value, so that probe is at
   its target from the first instant. *)
let prop_scan_stops_without_moving_crossings g =
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
  let x0 = Spice.Transient.dc_operating_point sys in
  let xf =
    Numeric.Sparse.solve (Spice.Mna.factor_g sys) (Spice.Mna.settled_rhs sys)
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
  let found =
    match
      Spice.Engine.threshold_scan_result ~options sys ~idx ~x0 ~xf ~horizon
    with
    | Ok found -> found
    | Error e -> Alcotest.failf "scan failed: %s" (Nontree_error.to_string e)
  in
  let reference = full_window_scan options sys ~idx ~x0 ~xf ~horizon in
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
          (function
            | Circuit.Deck.Tran { step; stop } ->
                require_finite ".tran bound" [ step; stop ]
            | Ac { f_start; f_stop; _ } ->
                require_finite ".ac bound" [ f_start; f_stop ])
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

(* Sparse vs dense kernel differentials ---------------------------------- *)

(* A random stamped system, built through the triplet log the way [Mna]
   and [Moments] stamp: a random connected Laplacian plus ground loads.
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
  let m = Numeric.Matrix.create n n in
  Numeric.Sparse.Triplets.iter t (fun i j v -> Numeric.Matrix.add_to m i j v);
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
  let dense_r = Numeric.Lu.try_factor dense in
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
      let xd = Numeric.Lu.solve df b in
      let xs = Numeric.Sparse.solve sf b in
      let err = rel_err xs xd in
      if err > 1e-9 then
        Alcotest.failf "sparse vs dense solve: n=%d rel err %.3e" n err
  | Ok _, Error k ->
      Alcotest.failf "sparse rejected (column %d) what dense accepted: n=%d" k n
  | Error k, Ok _ ->
      Alcotest.failf "sparse accepted what dense rejected (column %d): n=%d" k n

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

(* Incremental scoring factors each round's base once instead of every
   candidate's full system: on the table-2 size-5 and size-10 nets it
   must need at most half the sparse factorisations of the plain
   objective. *)
let test_incremental_cuts_factorizations () =
  Fault.disable ();
  let model = Nontree.Experiment.default.Nontree.Experiment.search_model in
  let factorizations = Obs.Counter.make "sparse.factorizations" in
  let count run =
    Nontree.Oracle.Cache.reset ();
    let f0 = Obs.Counter.value factorizations in
    List.iter (fun r -> ignore (run r)) (table2_msts ());
    Obs.Counter.value factorizations - f0
  in
  let incremental =
    with_incremental true (fun () -> count (Nontree.Ldrg.run ~model ~tech))
  in
  let plain =
    count (fun r ->
        Nontree.Ldrg.run_objective
          ~objective:(Nontree.Oracle.objective ~model ~tech) r)
  in
  if plain < 2 * incremental then
    Alcotest.failf "sparse.factorizations: incremental %d, plain %d (< 2x)"
      incremental plain

(* Wire sizing likewise: scoring each round's width trials as resize
   edits of one factored base must need at most half the sparse
   factorisations per evaluation of the plain objective (which factors
   moments, G (once, for DC and settle) and companion for every trial).
   Evaluations are memo lookups on both paths. *)
let test_sizing_cuts_factorizations () =
  Fault.disable ();
  let model = Nontree.Experiment.default.Nontree.Experiment.search_model in
  let factorizations = Obs.Counter.make "sparse.factorizations" in
  let module C = Nontree.Oracle.Cache in
  let per_eval enabled =
    with_incremental enabled (fun () ->
        C.reset ();
        let f0 = Obs.Counter.value factorizations in
        List.iter
          (fun r -> ignore (Nontree.Wire_sizing.size_greedy ~model ~tech r))
          (table2_msts ());
        let s = C.stats () in
        float_of_int (Obs.Counter.value factorizations - f0)
        /. float_of_int (s.C.hits + s.C.misses))
  in
  let incremental = per_eval true and plain = per_eval false in
  if plain < 2.0 *. incremental then
    Alcotest.failf
      "sparse.factorizations per evaluation: incremental %.2f, plain %.2f \
       (< 2x)"
      incremental plain

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
        Alcotest.test_case "sparse matches dense (200 stamped systems)" `Quick
          (fun () ->
            check ~trials:200 "sparse-vs-dense" prop_sparse_matches_dense);
        Alcotest.test_case "deck parser fuzz" `Quick (fun () ->
            check ~trials:100 "deck-fuzz" prop_deck_fuzz);
        Alcotest.test_case "net file parser fuzz" `Quick (fun () ->
            check ~trials:100 "netfile-fuzz" prop_netfile_fuzz);
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
