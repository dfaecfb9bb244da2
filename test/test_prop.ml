(* Property-based differential tests for the incremental (Woodbury)
   scoring stack.

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

(* A rank-1 term with a magnitude away from zero, either sign. *)
let gen_term g n =
  let alpha = Rng.float_in g 0.1 2.0 in
  let alpha = if Rng.bool g then alpha else -.alpha in
  (alpha, gen_vec g n, gen_vec g n)

let gen_net g =
  let pins = Rng.int_in g 4 9 in
  Geom.Netgen.uniform g ~region:(Geom.Rect.square 10_000.0) ~pins

(* Dense reference: the represented matrix, built explicitly. *)
let dense_of base_matrix ~pad terms =
  let n0 = Numeric.Matrix.rows base_matrix in
  let nt = n0 + pad in
  let m = Numeric.Matrix.create nt nt in
  for i = 0 to n0 - 1 do
    for j = 0 to n0 - 1 do
      Numeric.Matrix.set m i j (Numeric.Matrix.get base_matrix i j)
    done
  done;
  List.iter
    (fun (alpha, u, v) ->
      for i = 0 to nt - 1 do
        for j = 0 to nt - 1 do
          Numeric.Matrix.add_to m i j (alpha *. u.(i) *. v.(j))
        done
      done)
    terms;
  m

let rel_err x y =
  let scale = Float.max 1.0 (Numeric.Vec.norm_inf y) in
  Numeric.Vec.max_abs_diff x y /. scale

(* Differential properties ---------------------------------------------- *)

(* Woodbury solve vs a fresh LU of the summed matrix: 200 random
   (SPD-ish matrix, rank-1..3 update) pairs must agree to 1e-9
   relative. A degenerate [make] (None) is the documented fallback
   trigger, not a disagreement — the fresh path remains the oracle. *)
let prop_woodbury_matches_fresh g =
  let n = Rng.int_in g 2 8 in
  let a = gen_spd g n in
  let k = Rng.int_in g 1 3 in
  let terms = List.init k (fun _ -> gen_term g n) in
  let b = gen_vec g n in
  match Numeric.Lu.Update.make (Numeric.Lu.factor a) terms with
  | None -> ()
  | Some up ->
      let x = Numeric.Lu.Update.solve up b in
      let fresh = Numeric.Lu.solve_matrix (dense_of a ~pad:0 terms) b in
      let err = rel_err x fresh in
      if err > 1e-9 then
        Alcotest.failf "woodbury vs fresh: n=%d k=%d rel err %.3e" n k err

(* Same, with padded unknowns: the added terms chain through [pad]
   fresh unknowns the base matrix knows nothing about — the identity
   trick inside [Update.make] must be invisible in the solution. *)
let prop_woodbury_pad_matches_fresh g =
  let n = Rng.int_in g 2 6 in
  let pad = Rng.int_in g 1 3 in
  let nt = n + pad in
  let a = gen_spd g n in
  (* Chain n-1 -> p0 -> ... -> p_{pad-1} -> 0 with random conductances
     plus a ground load on every padded node, so the extended matrix is
     nonsingular. *)
  let terms = ref [] in
  let connect i j =
    let c = Rng.float_in g 0.5 2.0 in
    let w = Array.make nt 0.0 in
    w.(i) <- 1.0;
    w.(j) <- -1.0;
    terms := (c, w, Array.copy w) :: !terms
  in
  let chain = Array.init (pad + 2) (fun s ->
      if s = 0 then n - 1 else if s = pad + 1 then 0 else n + s - 1)
  in
  for s = 0 to pad do
    connect chain.(s) chain.(s + 1)
  done;
  for p = n to nt - 1 do
    let w = Array.make nt 0.0 in
    w.(p) <- 1.0;
    terms := (Rng.float_in g 0.1 1.0, w, Array.copy w) :: !terms
  done;
  let terms = !terms in
  let b = gen_vec g nt in
  match Numeric.Lu.Update.make ~pad (Numeric.Lu.factor a) terms with
  | None -> ()
  | Some up ->
      let x = Numeric.Lu.Update.solve up b in
      let fresh = Numeric.Lu.solve_matrix (dense_of a ~pad terms) b in
      let err = rel_err x fresh in
      if err > 1e-9 then
        Alcotest.failf "padded woodbury vs fresh: n=%d pad=%d rel err %.3e" n
          pad err

(* The deterministic near-singular construction: alpha = -1/(A⁻¹)ᵢᵢ
   makes the capacitance matrix S exactly zero at k=1, which [make]
   must detect and refuse — the fallback trigger of the scorer. *)
let prop_near_singular_rejected g =
  let n = Rng.int_in g 2 6 in
  let a = gen_spd g n in
  let lu = Numeric.Lu.factor a in
  let i = Rng.int g n in
  let e = Array.make n 0.0 in
  e.(i) <- 1.0;
  let x = Numeric.Lu.solve lu e in
  let alpha = -1.0 /. x.(i) in
  match Numeric.Lu.Update.make lu [ (alpha, e, Array.copy e) ] with
  | None -> ()
  | Some _ ->
      Alcotest.failf "singularising update accepted: n=%d i=%d alpha=%h" n i
        alpha

(* The moment stamp algebra end to end on random point nets: first
   moments of (MST + one candidate edge) computed through the
   incremental update must match [Delay.Moments.first_moments] of the
   rebuilt trial routing. *)
let prop_incremental_moments_match_rebuild g =
  let net = gen_net g in
  let r = Routing.mst_of_net net in
  match Routing.candidate_edges r with
  | [] -> ()
  | cands ->
      let u, v = List.nth cands (Rng.int g (List.length cands)) in
      let trial = Routing.add_edge r u v in
      let direct = Delay.Moments.first_moments ~tech trial in
      let lu =
        Numeric.Lu.factor
          (Numeric.Sparse.Csc.to_matrix
             (Delay.Moments.conductance_matrix ~tech r))
      in
      let n = Routing.num_vertices r in
      let length =
        Geom.Point.manhattan (Routing.point r u) (Routing.point r v)
      in
      let cond =
        1.0
        /. Circuit.Technology.wire_resistance_of tech ~length ~width:1.0
      in
      let cap =
        Circuit.Technology.wire_capacitance_of tech ~length ~width:1.0
      in
      let w = Array.make n 0.0 in
      w.(u) <- 1.0;
      w.(v) <- -1.0;
      let c = Delay.Moments.node_capacitances ~tech r in
      c.(u) <- c.(u) +. (cap /. 2.0);
      c.(v) <- c.(v) +. (cap /. 2.0);
      (match Numeric.Lu.Update.make lu [ (cond, w, Array.copy w) ] with
      | None -> Alcotest.fail "moment update unexpectedly degenerate"
      | Some up ->
          let m1 = Numeric.Lu.Update.solve up c in
          let err = rel_err m1 direct in
          if err > 1e-9 then
            Alcotest.failf "incremental m1 vs rebuild: edge (%d,%d) rel err %.3e"
              u v err)

(* Trace equality: LDRG with incremental scoring on picks the identical
   edge sequence, identical rounded objectives and the same evaluation
   count as with it off — on table-2-style nets under every supported
   model. *)

let with_incremental enabled f =
  let prev = Nontree.Incremental.enabled () in
  Nontree.Incremental.set_enabled enabled;
  Fun.protect ~finally:(fun () -> Nontree.Incremental.set_enabled prev) f

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
   refuse. Exact constructions only: borderline cases where threshold
   pivoting gives up but dense full pivoting does not are the
   documented job of [Backend]'s fallback, not a kernel property. *)
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

(* Woodbury scores are memoised under their own path tag: after an LDRG
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
  let config = Nontree.Experiment.default in
  let model = config.Nontree.Experiment.search_model in
  let factorizations = Obs.Counter.make "sparse.factorizations" in
  let count run =
    Nontree.Oracle.Cache.reset ();
    let f0 = Obs.Counter.value factorizations in
    List.iter
      (fun size ->
        Array.iter
          (fun net -> ignore (run (Routing.mst_of_net net)))
          (Nontree.Experiment.nets { config with trials = 2 } ~size))
      [ 5; 10 ];
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

let suites =
  [ ( "prop",
      [ Alcotest.test_case "woodbury matches fresh LU (200 pairs)" `Quick
          (fun () ->
            check ~trials:200 "woodbury-vs-fresh" prop_woodbury_matches_fresh);
        Alcotest.test_case "padded woodbury matches fresh LU" `Quick
          (fun () ->
            check ~trials:100 "padded-woodbury" prop_woodbury_pad_matches_fresh);
        Alcotest.test_case "near-singular updates rejected" `Quick
          (fun () ->
            check ~trials:100 "near-singular" prop_near_singular_rejected);
        Alcotest.test_case "incremental moments match rebuild" `Quick
          (fun () ->
            check ~trials:60 "moments-differential"
              prop_incremental_moments_match_rebuild);
        Alcotest.test_case "sparse matches dense (200 stamped systems)" `Quick
          (fun () ->
            check ~trials:200 "sparse-vs-dense" prop_sparse_matches_dense);
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
          test_incremental_cuts_factorizations ] ) ]
