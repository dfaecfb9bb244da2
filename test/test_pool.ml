(* Tests for the Domain work pool and the parallel oracle layer built
   on it: map ordering and exception determinism across worker counts,
   greedy traces identical between --jobs 1 and --jobs 4, and the
   oracle memo cache returning bit-identical values while actually
   being hit by the harness. *)

open Geom

let tech = Circuit.Technology.table1
let moment_model = Delay.Model.First_moment

exception Boom of int

(* The cache is process-global; every cache test starts from an empty
   table and leaves the switch as it found it. *)
let with_cache_enabled enabled f =
  let prev = Nontree.Oracle.Cache.enabled () in
  Nontree.Oracle.Cache.reset ();
  Nontree.Oracle.Cache.set_enabled enabled;
  Fun.protect
    ~finally:(fun () ->
      Nontree.Oracle.Cache.set_enabled prev;
      Nontree.Oracle.Cache.reset ())
    f

let with_cache f = with_cache_enabled true f

let random_net seed pins =
  let g = Rng.create seed in
  Netgen.uniform g ~region:(Rect.square 10_000.0) ~pins

let random_mst seed pins = Routing.mst_of_net (random_net seed pins)

(* The move adding the absent wire (u,v) to [r], as LDRG lists it. *)
let add_wire r (u, v) = List.hd (Nontree.Ldrg.adds (fun _ -> [ (u, v) ]) r)

(* Pool.map semantics ---------------------------------------------------- *)

let test_map_matches_list_map () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let xs = List.init 100 Fun.id in
          Alcotest.(check (list int))
            (Printf.sprintf "%d jobs: 100 items in order" jobs)
            (List.map (fun x -> x * x) xs)
            (Pool.map pool (fun x -> x * x) xs);
          Alcotest.(check (list int))
            (Printf.sprintf "%d jobs: empty list" jobs)
            []
            (Pool.map pool (fun x -> x * x) []);
          Alcotest.(check (list int))
            (Printf.sprintf "%d jobs: singleton" jobs)
            [ 49 ]
            (Pool.map pool (fun x -> x * x) [ 7 ])))
    [ 1; 2; 3; 8 ]

let test_map_raises_lowest_index () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let raised =
            match
              Pool.map pool
                (fun i -> if i >= 37 then raise (Boom i) else i)
                (List.init 100 Fun.id)
            with
            | _ -> None
            | exception Boom i -> Some i
          in
          Alcotest.(check (option int))
            (Printf.sprintf "%d jobs: lowest failing index wins" jobs)
            (Some 37) raised))
    [ 1; 2; 4 ]

let test_nested_maps () =
  Pool.with_pool ~jobs:3 (fun pool ->
      let inner i =
        Pool.map pool (fun j -> (10 * i) + j) (List.init 5 Fun.id)
      in
      Alcotest.(check (list (list int)))
        "inner maps on the same pool complete in order"
        (List.init 4 (fun i -> List.init 5 (fun j -> (10 * i) + j)))
        (Pool.map pool inner (List.init 4 Fun.id)))

let test_parallel_effects_all_land () =
  Pool.with_pool ~jobs:8 (fun pool ->
      let counter = Atomic.make 0 in
      ignore
        (Pool.map pool
           (fun _ -> Atomic.incr counter)
           (List.init 1000 Fun.id));
      Alcotest.(check int) "1000 increments, none lost" 1000
        (Atomic.get counter))

let test_map_after_shutdown () =
  let pool = Pool.create 4 in
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.(check (list int)) "caller finishes the job alone" [ 2; 4; 6 ]
    (Pool.map pool (fun x -> 2 * x) [ 1; 2; 3 ])

(* Parallel greedy loops ------------------------------------------------- *)

let steps_of (trace : Nontree.Ldrg.trace) =
  List.map
    (fun (s : Nontree.Ldrg.step) ->
      ( s.Nontree.Ldrg.edge,
        s.Nontree.Ldrg.objective_before,
        s.Nontree.Ldrg.objective_after,
        s.Nontree.Ldrg.cost_before,
        s.Nontree.Ldrg.cost_after ))
    trace.Nontree.Ldrg.steps

let traces_identical a b =
  (* Bitwise float equality on purpose: the parallel run must evaluate
     the same candidates to the same values and pick the same winners,
     not merely land close. *)
  steps_of a = steps_of b
  && a.Nontree.Ldrg.evaluations = b.Nontree.Ldrg.evaluations
  && Routing.widths a.Nontree.Ldrg.final = Routing.widths b.Nontree.Ldrg.final

let prop_ldrg_trace_identical_under_jobs =
  QCheck.Test.make
    ~name:"LDRG: --jobs 4 trace structurally equal to sequential" ~count:10
    QCheck.(pair small_int (int_range 4 8))
    (fun (seed, pins) ->
      let mst = random_mst seed pins in
      let seq = Nontree.Ldrg.run ~model:moment_model ~tech mst in
      let par =
        Pool.with_pool ~jobs:4 (fun pool ->
            Nontree.Ldrg.run ~pool ~model:moment_model ~tech mst)
      in
      traces_identical seq par)

let test_ldrg_spice_trace_identical () =
  (* One fixed net under the SPICE oracle, where numeric noise would
     show up first if the parallel path perturbed evaluation at all. *)
  let mst = random_mst 42 8 in
  let model = Delay.Model.Spice Delay.Model.fast_spice in
  let seq = Nontree.Ldrg.run ~model ~tech mst in
  let par =
    Pool.with_pool ~jobs:4 (fun pool -> Nontree.Ldrg.run ~pool ~model ~tech mst)
  in
  Alcotest.(check bool) "SPICE traces identical" true (traces_identical seq par)

let test_h1_under_net_fanout () =
  (* H1 itself is serial; check that fanning nets out over a pool (as
     the harness does) reproduces the sequential traces. *)
  let nets = List.init 6 (fun i -> random_mst (100 + i) 6) in
  let run mst = Nontree.Heuristics.h1 ~model:moment_model ~tech mst in
  let seq = List.map run nets in
  let par = Pool.with_pool ~jobs:3 (fun pool -> Pool.map pool run nets) in
  Alcotest.(check bool) "h1 traces identical under fan-out" true
    (List.for_all2 traces_identical seq par)

let test_table_rows_identical_under_jobs () =
  let config jobs =
    { Nontree.Experiment.default with trials = 3; sizes = [ 5; 10 ]; jobs }
  in
  let rows jobs = Harness.Runs.table2 (config jobs) in
  Alcotest.(check bool) "table2 rows identical for jobs 1 and 2" true
    (rows 1 = rows 2)

(* Oracle memo cache ----------------------------------------------------- *)

let test_cache_bit_identical_and_hit () =
  with_cache (fun () ->
      let r = random_mst 7 6 in
      let direct = Delay.Robust.sink_delays_exn ~model:moment_model ~tech r in
      let first = Nontree.Oracle.Cache.sink_delays ~model:moment_model ~tech r in
      let second = Nontree.Oracle.Cache.sink_delays ~model:moment_model ~tech r in
      Alcotest.(check bool) "cached equals uncached, bit for bit" true
        (direct = first && first = second);
      let s = Nontree.Oracle.Cache.stats () in
      Alcotest.(check int) "one miss" 1 s.Nontree.Oracle.Cache.misses;
      Alcotest.(check int) "one hit" 1 s.Nontree.Oracle.Cache.hits;
      Alcotest.(check int) "one entry" 1 s.Nontree.Oracle.Cache.entries)

let test_cache_key_discriminates () =
  with_cache (fun () ->
      let r = random_mst 11 6 in
      let u, v = List.hd (Routing.candidate_edges r) in
      let grown = Routing.add_edge r u v in
      let (wu, wv), _ = List.hd (Routing.widths r) in
      let widened = Routing.set_width r wu wv 2.0 in
      ignore (Nontree.Oracle.Cache.max_delay ~model:moment_model ~tech r);
      ignore (Nontree.Oracle.Cache.max_delay ~model:moment_model ~tech grown);
      ignore (Nontree.Oracle.Cache.max_delay ~model:moment_model ~tech widened);
      ignore
        (Nontree.Oracle.Cache.max_delay
           ~model:(Delay.Model.Spice Delay.Model.fast_spice) ~tech r);
      let s = Nontree.Oracle.Cache.stats () in
      Alcotest.(check int)
        "edge set, widths and model all key separately (4 misses)" 4
        s.Nontree.Oracle.Cache.misses;
      Alcotest.(check int) "no spurious hits" 0 s.Nontree.Oracle.Cache.hits)

(* Each variant of the oracle inputs must get its own entry. [memo]
   is fed a constant computation: the key is under test, not the
   oracle. *)
let test_cache_key_coverage () =
  with_cache (fun () ->
      let module C = Nontree.Oracle.Cache in
      let r = random_mst 17 6 in
      let cfg = Delay.Model.fast_spice in
      let opts = cfg.Delay.Model.options in
      let spice ?(options = opts) ?(segmentation = cfg.Delay.Model.segmentation)
          ?(include_inductance = cfg.Delay.Model.include_inductance) () =
        Delay.Model.Spice { options; segmentation; include_inductance }
      in
      let per_length = Delay.Lumping.Per_length { unit_length = 500.0; max_segments = 4 } in
      let t = tech in
      let variants =
        [ ("base", spice (), t);
          ("steps_per_chunk",
           spice
             ~options:
               { opts with
                 Spice.Engine.steps_per_chunk = opts.Spice.Engine.steps_per_chunk + 1 }
             (),
           t);
          ("max_extensions",
           spice
             ~options:
               { opts with
                 Spice.Engine.max_extensions = opts.Spice.Engine.max_extensions + 1 }
             (),
           t);
          ("Fixed 3", spice ~segmentation:(Delay.Lumping.Fixed 3) (), t);
          ("Fixed 4", spice ~segmentation:(Delay.Lumping.Fixed 4) (), t);
          ("Per_length", spice ~segmentation:per_length (), t);
          ("Per_length unit_length",
           spice
             ~segmentation:
               (Delay.Lumping.Per_length { unit_length = 501.0; max_segments = 4 })
             (),
           t);
          ("Per_length max_segments",
           spice
             ~segmentation:
               (Delay.Lumping.Per_length { unit_length = 500.0; max_segments = 5 })
             (),
           t);
          ("include_inductance",
           spice ~include_inductance:(not cfg.Delay.Model.include_inductance) (),
           t);
          ("driver_resistance", spice (),
           { t with driver_resistance = t.driver_resistance *. 2.0 });
          ("wire_resistance", spice (),
           { t with wire_resistance = t.wire_resistance *. 2.0 });
          ("wire_capacitance", spice (),
           { t with wire_capacitance = t.wire_capacitance *. 2.0 });
          ("wire_inductance", spice (),
           { t with wire_inductance = t.wire_inductance *. 2.0 +. 1e-12 });
          ("sink_capacitance", spice (),
           { t with sink_capacitance = t.sink_capacitance *. 2.0 });
          ("layout_side", spice (),
           { t with layout_side = t.layout_side *. 2.0 }) ]
      in
      List.iteri
        (fun i (name, model, tech) ->
          let before = (C.stats ()).C.misses in
          let ds = C.memo ~model ~tech r (fun () -> [ (1, float_of_int i) ]) in
          Alcotest.(check int) (name ^ " misses") (before + 1) (C.stats ()).C.misses;
          Alcotest.(check (float 0.0)) (name ^ " computed") (float_of_int i)
            (snd (List.hd ds)))
        variants;
      Alcotest.(check int) "one entry per variant" (List.length variants)
        (C.stats ()).C.entries;
      (* The same routing reached by two edit orders shares one key. *)
      let (a, b), (c, d) =
        match Routing.candidate_edges r with
        | e1 :: e2 :: _ -> (e1, e2)
        | _ -> Alcotest.fail "need two candidate edges"
      in
      let one_way = Routing.add_edge (Routing.add_edge r a b) c d in
      let other_way = Routing.add_edge (Routing.add_edge r c d) a b in
      let model = spice () in
      ignore (C.memo ~model ~tech one_way (fun () -> [ (1, 1.0) ]));
      let hits = (C.stats ()).C.hits in
      let ds =
        C.memo ~model ~tech other_way (fun () -> Alcotest.fail "recomputed")
      in
      Alcotest.(check int) "second edit order hits" (hits + 1) (C.stats ()).C.hits;
      Alcotest.(check (float 0.0)) "stored value" 1.0 (snd (List.hd ds));
      (* Plain entries and edit entries (a round's digest plus an edit)
         keep separate keys. *)
      let plain = C.memo ~model ~tech r (fun () -> Alcotest.fail "recomputed") in
      let misses = (C.stats ()).C.misses in
      let edit = Nontree.Incremental.edit_key (add_wire r (a, b)) in
      let inc =
        C.memo_edit ~cutoff:infinity (C.round ~model ~tech r) edit (fun () ->
            Spice.Engine.Exact (-1.0))
      in
      Alcotest.(check int) "edit entry misses" (misses + 1) (C.stats ()).C.misses;
      Alcotest.(check (float 0.0)) "plain entry kept" 0.0 (snd (List.hd plain));
      Alcotest.(check bool) "edit entry" true
        (inc = Spice.Engine.Exact (-1.0));
      Alcotest.(check bool) "plain lookup unchanged" true
        (C.find_delays ~model ~tech r = Some plain);
      Alcotest.(check bool) "the edited trial has no plain entry" true
        (C.find_delays ~model ~tech (Routing.add_edge r a b) = None);
      (* Each move of one round keys separately: orientation, kind and
         width all enter the key. *)
      let (wu, wv), _ = List.hd (Routing.widths r) in
      let resize u v width =
        { Delay.Model.u; v; width; was = Some 1.0;
          length = Routing.edge_length r u v }
      in
      let edits =
        [ add_wire r (b, a); add_wire r (c, d); resize wu wv 2.0;
          resize wv wu 2.0; resize wu wv 3.0 ]
      in
      let round = C.round ~model ~tech r in
      let entries = (C.stats ()).C.entries in
      List.iteri
        (fun i e ->
          let ds =
            C.memo_edit ~cutoff:infinity round (Nontree.Incremental.edit_key e)
              (fun () -> Spice.Engine.Exact (float_of_int i))
          in
          Alcotest.(check bool) "edit computed" true
            (ds = Spice.Engine.Exact (float_of_int i)))
        edits;
      Alcotest.(check int) "one entry per edit"
        (entries + List.length edits) (C.stats ()).C.entries)

let test_cache_disabled_passthrough () =
  with_cache_enabled false (fun () ->
      let r = random_mst 13 5 in
      ignore (Nontree.Oracle.Cache.sink_delays ~model:moment_model ~tech r);
      ignore (Nontree.Oracle.Cache.sink_delays ~model:moment_model ~tech r);
      let s = Nontree.Oracle.Cache.stats () in
      Alcotest.(check int) "disabled cache records nothing" 0
        (s.Nontree.Oracle.Cache.hits + s.Nontree.Oracle.Cache.misses
       + s.Nontree.Oracle.Cache.entries))

let with_incremental enabled f =
  let prev = Nontree.Incremental.enabled () in
  Nontree.Incremental.set_enabled enabled;
  Fun.protect ~finally:(fun () -> Nontree.Incremental.set_enabled prev) f

(* With incremental scoring on, the search's incremental scores are
   memoised as edit entries, so the harness's plain replays never
   read them: the rows are bit-identical with the cache on or off. *)
let test_cache_hit_by_harness () =
  with_incremental true (fun () ->
      with_cache (fun () ->
          let config =
            { Nontree.Experiment.default with trials = 3; sizes = [ 10 ] }
          in
          let with_cache_rows = Harness.Runs.table2 config in
          let s = Nontree.Oracle.Cache.stats () in
          Alcotest.(check bool)
            "iteration replay hits the search's cached evaluations" true
            (s.Nontree.Oracle.Cache.hits > 0);
          Nontree.Oracle.Cache.set_enabled false;
          let without_cache_rows = Harness.Runs.table2 config in
          Alcotest.(check bool) "rows identical with and without cache" true
            (with_cache_rows = without_cache_rows)))

(* Incremental memo keys: a score is stored under its round's base
   digest plus the edit. *)

let incremental_scored = Obs.Counter.make "oracle.incremental_hits"

let scorer_exn ~model r =
  Nontree.Incremental.make_scorer ~model ~tech
    ~fallback:(fun _ -> Alcotest.fail "the scorer fell back")
    r ~cutoff:Float.infinity

(* Elmore and RLC SPICE have no incremental scorer. That is not a
   failure: [make_scorer] gives them the plain scorer, which scores a
   move on its fallback with no incremental hit and no fallback
   counted, and an LDRG search under RLC SPICE takes the same trace
   with incremental scoring on or off. *)
let test_unsupported_models_have_no_scorer () =
  Fault.disable ();
  let fallbacks = Obs.Counter.make "oracle.incremental_fallbacks" in
  let r = random_mst 23 6 in
  let rlc = Delay.Model.Spice Delay.Model.rlc_spice in
  with_incremental true (fun () ->
      List.iter
        (fun model ->
          let name = Delay.Model.name model in
          let f0 = Obs.Counter.value fallbacks
          and i0 = Obs.Counter.value incremental_scored in
          let called = ref 0 in
          let score =
            Nontree.Incremental.make_scorer ~model ~tech
              ~fallback:(fun _ ->
                incr called;
                1.0)
              r
          in
          List.iter
            (fun w -> ignore (score ~cutoff:Float.infinity w))
            (Nontree.Wire_sizing.resizes ~widths:[ 1.0; 2.0 ] r);
          Alcotest.(check int) (name ^ ": every move on the plain objective")
            (Routing.num_vertices r - 1) !called;
          Alcotest.(check int) (name ^ ": no incremental hit") i0
            (Obs.Counter.value incremental_scored);
          Alcotest.(check int) (name ^ ": no fallback counted") f0
            (Obs.Counter.value fallbacks))
        [ Delay.Model.Elmore_tree; rlc ]);
  let search incremental =
    with_incremental incremental (fun () ->
        with_cache (fun () ->
            let f0 = Obs.Counter.value fallbacks in
            let trace = Nontree.Ldrg.run ~max_edges:2 ~model:rlc ~tech r in
            Alcotest.(check int) "no fallback in the search" f0
              (Obs.Counter.value fallbacks);
            trace))
  in
  let on = search true and off = search false in
  Alcotest.(check bool) "the same trace, incremental on or off" true
    (steps_of on = steps_of off
    && Routing.widths on.Nontree.Ldrg.final
       = Routing.widths off.Nontree.Ldrg.final
    && on.Nontree.Ldrg.evaluations = off.Nontree.Ldrg.evaluations)

(* The budget ladder's first round scores edits of the same MST that an
   unbounded run already scored: every one of them (and the baseline)
   is answered from the memo, and nothing is scored afresh. *)
let test_budget_round_one_from_memo () =
  Fault.disable ();
  with_incremental true (fun () ->
      with_cache (fun () ->
          let module C = Nontree.Oracle.Cache in
          let model = Delay.Model.Two_pole in
          let mst = random_mst 29 8 in
          ignore (Nontree.Ldrg.run ~model ~tech mst);
          let slack = 0.5 *. Routing.cost mst in
          let shared =
            List.filter
              (fun (u, v) ->
                Geom.Point.manhattan (Routing.point mst u) (Routing.point mst v)
                <= slack)
              (Routing.candidate_edges mst)
          in
          Alcotest.(check bool) "the budget admits candidates" true
            (shared <> []);
          let s0 = C.stats () and i0 = Obs.Counter.value incremental_scored in
          ignore
            (Nontree.Ldrg.run_budgeted ~max_edges:1 ~max_cost_ratio:1.5 ~model
               ~tech mst);
          let s1 = C.stats () in
          Alcotest.(check int) "no new incremental scores" i0
            (Obs.Counter.value incremental_scored);
          Alcotest.(check int) "no misses" 0 (s1.C.misses - s0.C.misses);
          Alcotest.(check int) "baseline and every shared candidate hit"
            (1 + List.length shared) (s1.C.hits - s0.C.hits)))

(* One trial reached from two bases (A+e1 then e2, A+e2 then e1) is two
   edit entries: a hit is always a recomputation from the same base. *)
let test_same_trial_two_bases () =
  Fault.disable ();
  with_incremental true (fun () ->
      with_cache (fun () ->
          let module C = Nontree.Oracle.Cache in
          let model = Delay.Model.Two_pole in
          let a = random_mst 31 6 in
          let e1, e2 =
            match Routing.candidate_edges a with
            | e1 :: e2 :: _ -> (e1, e2)
            | _ -> Alcotest.fail "need two candidate edges"
          in
          let add r (u, v) = Routing.add_edge r u v in
          let i0 = Obs.Counter.value incremental_scored in
          let score_from base (u, v) =
            ignore (scorer_exn ~model base (add_wire base (u, v)))
          in
          score_from (add a e1) e2;
          score_from (add a e2) e1;
          let s = C.stats () in
          Alcotest.(check int) "two misses" 2 s.C.misses;
          Alcotest.(check int) "no hits" 0 s.C.hits;
          Alcotest.(check int) "two entries" 2 s.C.entries;
          Alcotest.(check int) "both scored" (i0 + 2)
            (Obs.Counter.value incremental_scored)))

(* With the cache off the scorer still scores, but stores and counts
   nothing. *)
let test_scorer_without_cache () =
  Fault.disable ();
  with_incremental true (fun () ->
      with_cache_enabled false (fun () ->
          let module C = Nontree.Oracle.Cache in
          let r = random_mst 37 6 in
          let cands = Routing.candidate_edges r in
          let score = scorer_exn ~model:Delay.Model.Two_pole r in
          let i0 = Obs.Counter.value incremental_scored in
          List.iter (fun e -> ignore (score (add_wire r e))) cands;
          Alcotest.(check int) "every candidate scored"
            (i0 + List.length cands)
            (Obs.Counter.value incremental_scored);
          let s = C.stats () in
          Alcotest.(check int) "nothing stored or counted" 0
            (s.C.hits + s.C.misses + s.C.entries)))

(* A cut trial's entry is a bound: it answers a lookup with a lower
   cutoff as one hit; a lookup with a cutoff at or above it is one miss
   that recomputes the trial and replaces the entry. Every lookup is
   one hit or one miss. *)
let test_cache_bound_entries () =
  with_cache (fun () ->
      let module C = Nontree.Oracle.Cache in
      let round = C.round ~model:moment_model ~tech (random_mst 5 4) in
      let lookups = ref 0 and computed = ref 0 in
      let lookup ?(key = "edit") ~cutoff value =
        incr lookups;
        C.memo_edit ~cutoff round key (fun () ->
            incr computed;
            value)
      in
      let exact = Spice.Engine.Exact 3.0 in
      let check what ~hits ~misses ~computes ?(entries = 1) result expected =
        let s = C.stats () in
        Alcotest.(check bool) (what ^ ": answer") true (result = expected);
        Alcotest.(check int) (what ^ ": hits") hits s.C.hits;
        Alcotest.(check int) (what ^ ": misses") misses s.C.misses;
        Alcotest.(check int) (what ^ ": computed") computes !computed;
        Alcotest.(check int) (what ^ ": entries") entries s.C.entries;
        Alcotest.(check int) (what ^ ": hits + misses = lookups") !lookups
          (s.C.hits + s.C.misses)
      in
      let cut = lookup ~cutoff:1.0 (Spice.Engine.Above 2.0) in
      check "first lookup" ~hits:0 ~misses:1 ~computes:1 cut
        (Spice.Engine.Above 2.0);
      check "lower cutoff" ~hits:1 ~misses:1 ~computes:1
        (lookup ~cutoff:1.5 exact) (Spice.Engine.Above 2.0);
      check "cutoff equal to the bound" ~hits:1 ~misses:2 ~computes:2
        (lookup ~cutoff:2.0 exact) exact;
      check "the exact entry replaced the bound" ~hits:2 ~misses:2 ~computes:2
        (lookup ~cutoff:Float.infinity (Spice.Engine.Above 9.0)) exact;
      (* No bound answers an infinite cutoff. *)
      ignore (lookup ~cutoff:3.0 (Spice.Engine.Above 5.0) ~key:"other");
      check "a bound never answers an infinite cutoff" ~hits:2 ~misses:4
        ~computes:4 ~entries:2
        (lookup ~cutoff:Float.infinity exact ~key:"other")
        exact)

(* Memo bound -------------------------------------------------------------- *)

(* Far past 200,000 distinct keys the memo still stores: a fresh key
   hits on its second lookup, so does the oldest of the last
   [generation] stores, and the two generations never hold more than
   twice [generation] entries. *)
let test_cache_bounded_generations () =
  with_cache (fun () ->
      let module C = Nontree.Oracle.Cache in
      let round = C.round ~model:moment_model ~tech (random_mst 3 4) in
      let value i = Spice.Engine.Exact (float_of_int i) in
      let store i =
        ignore
          (C.memo_edit ~cutoff:infinity round (string_of_int i) (fun () ->
               value i))
      in
      let keys = 200_001 in
      for i = 1 to keys do
        store i
      done;
      Alcotest.(check bool) "at most two generations after 200,001 keys" true
        ((C.stats ()).C.entries <= 2 * C.generation);
      let fresh = keys + 1 in
      store fresh;
      let hits key =
        let s0 = C.stats () in
        let ds =
          C.memo_edit ~cutoff:infinity round (string_of_int key) (fun () ->
              Alcotest.failf "key %d was not kept" key)
        in
        Alcotest.(check bool) "the stored value" true (ds = value key);
        Alcotest.(check int) "one hit" 1 ((C.stats ()).C.hits - s0.C.hits)
      in
      hits fresh;
      hits (fresh - C.generation + 1);
      Alcotest.(check bool) "entries bounded" true
        ((C.stats ()).C.entries <= 2 * C.generation))

(* The greedy loop's failure rule ------------------------------------------ *)

(* Each search runs [Ldrg.search] on one of the two move kinds (LDRG's
   additions, wire sizing's resizes), on one of the two scoring paths,
   under a sequential or a 2-domain pool. An objective that fails on
   chosen routings scripts the failures: a failing baseline must raise
   the typed error (and [Runs.protect_net] drop the net); a failing
   candidate must be counted once, never selected, and leave the trace
   of a search in which it is absent. *)

let failure_model = Delay.Model.Two_pole
let scripted = Nontree_error.Invalid_net "scripted failure"
let same a b = Routing.widths a = Routing.widths b

let failing_search ~incremental ~pool ~moves ~fails r =
  let objective x =
    if fails x then Nontree_error.raise_error scripted
    else Nontree.Oracle.Cache.max_delay ~model:failure_model ~tech x
  in
  (* The incremental path fails on the same trials, through its own
     scorer rather than the fallback. *)
  let scorer base =
    let score =
      if incremental then
        Nontree.Incremental.make_scorer ~model:failure_model ~tech
          ~fallback:objective base
      else Nontree.Incremental.plain objective base
    in
    fun ~cutoff w ->
      if incremental && fails (Nontree.Incremental.apply base w) then
        Nontree_error.raise_error scripted;
      score ~cutoff w
  in
  Nontree.Ldrg.search ~pool ~moves ~scorer ~objective r

let add_moves = Nontree.Ldrg.adds Routing.candidate_edges

let resize_moves = Nontree.Wire_sizing.resizes ~widths:[ 1.0; 2.0; 3.0 ]

let test_failure_rule ~moves ~incremental ~jobs () =
  Fault.disable ();
  let counters () = Nontree_error.Counters.snapshot () in
  with_incremental true @@ fun () ->
  with_cache @@ fun () ->
  Pool.with_pool ~jobs @@ fun pool ->
  let r = random_mst 17 7 in
  let run ?(fails = fun _ -> false) ?(moves = moves) () =
    failing_search ~incremental ~pool ~moves ~fails r
  in
  let i0 = Obs.Counter.value incremental_scored in
  let clean, clean_edits = run () in
  Alcotest.(check bool) "scored on the chosen path" incremental
    (Obs.Counter.value incremental_scored > i0);
  let first =
    match clean_edits with
    | e :: _ -> e
    | [] -> Alcotest.fail "the clean search takes no move"
  in
  (* A failing baseline: the typed error propagates, and the harness
     drops the net, while no candidate is counted. *)
  let baseline x = same x r in
  (match Nontree_error.protect (fun () -> run ~fails:baseline ()) with
  | Error (Nontree_error.Invalid_net _) -> ()
  | Error e -> Alcotest.failf "unexpected error %s" (Nontree_error.to_string e)
  | Ok _ -> Alcotest.fail "a failing baseline must raise");
  let c0 = counters () in
  (match Harness.Runs.protect_net ~what:"failure rule" (fun () -> run ~fails:baseline ()) with
  | None -> ()
  | Some _ -> Alcotest.fail "a failing baseline must drop the net");
  let c1 = counters () in
  Alcotest.(check int) "net dropped" 1 (c1.dropped_nets - c0.dropped_nets);
  Alcotest.(check int) "no candidate dropped" 0
    (c1.dropped_evaluations - c0.dropped_evaluations);
  (* The clean run's first winner fails in its round. *)
  let trial = Nontree.Incremental.apply r first in
  let failed, failed_edits = run ~fails:(same trial) () in
  let c2 = counters () in
  Alcotest.(check int) "the failure counted once" 1
    (c2.dropped_evaluations - c1.dropped_evaluations);
  (match failed_edits with
  | e :: _ when e = first -> Alcotest.fail "the failed candidate was selected"
  | _ -> ());
  let absent, absent_edits =
    run
      ~moves:(fun x ->
        if same x r then List.filter (fun e -> e <> first) (moves x) else moves x)
      ()
  in
  Alcotest.(check bool) "the trace of a search without it" true
    (steps_of failed = steps_of absent
    && same failed.Nontree.Ldrg.final absent.Nontree.Ldrg.final
    && failed_edits = absent_edits);
  Alcotest.(check int) "one more evaluation than without it"
    (absent.Nontree.Ldrg.evaluations + 1) failed.Nontree.Ldrg.evaluations;
  Alcotest.(check bool) "and a different search than the clean one" true
    (steps_of failed <> steps_of clean)

(* The same baseline rule through the real oracle stack: faults on every
   draw exhaust retry and fallback on a non-tree routing, so LDRG and
   wire sizing raise the typed error before scoring any candidate. *)
let test_baseline_faults_drop_net ~incremental ~jobs () =
  with_incremental incremental @@ fun () ->
  with_cache @@ fun () ->
  Pool.with_pool ~jobs @@ fun pool ->
  let tree = random_mst 17 7 in
  let u, v = List.hd (Routing.candidate_edges tree) in
  let r = Routing.add_edge tree u v in
  let model = Delay.Model.Spice Delay.Model.fast_spice in
  let fails what f =
    Fault.script (List.init 20 (fun _ -> Some Fault.Nan_value));
    Fun.protect ~finally:Fault.disable (fun () ->
        let c0 = Nontree_error.Counters.snapshot () in
        (match Harness.Runs.protect_net ~what f with
        | None -> ()
        | Some _ -> Alcotest.failf "%s: a failing baseline must drop the net" what);
        let c1 = Nontree_error.Counters.snapshot () in
        Alcotest.(check int) (what ^ ": net dropped") 1
          (c1.dropped_nets - c0.dropped_nets);
        Alcotest.(check int) (what ^ ": no candidate dropped") 0
          (c1.dropped_evaluations - c0.dropped_evaluations))
  in
  fails "ldrg" (fun () -> Nontree.Ldrg.run ~pool ~model ~tech r);
  fails "wire sizing" (fun () -> Nontree.Wire_sizing.size_greedy ~model ~tech r)

(* The minor words a fast-SPICE candidate allocates: one warmed-up
   round of a seeded [pins]-pin MST's additions through the incremental
   scorer, memo and observability off, each candidate handed the
   round's running bound as the greedy loop hands it. *)
let candidate_words pins =
  Fault.disable ();
  let obs = Obs.enabled () in
  Obs.set_enabled false;
  Fun.protect ~finally:(fun () -> Obs.set_enabled obs) @@ fun () ->
  with_incremental true @@ fun () ->
  with_cache_enabled false @@ fun () ->
  let r = random_mst 2024 pins in
  let score =
    Nontree.Incremental.make_scorer
      ~model:(Delay.Model.Spice Delay.Model.fast_spice) ~tech
      ~fallback:(fun _ -> Alcotest.fail "the scorer fell back")
      r
  in
  let moves = Array.of_list (Nontree.Ldrg.adds Routing.candidate_edges r) in
  let best = [| Float.infinity |] in
  let round () =
    best.(0) <- Float.infinity;
    for i = 0 to Array.length moves - 1 do
      best.(0) <- Float.min best.(0) (score ~cutoff:best.(0) moves.(i))
    done
  in
  round ();
  let before = Gc.minor_words () in
  round ();
  (Gc.minor_words () -. before) /. float_of_int (Array.length moves)

(* A fast-SPICE candidate allocates under 1,000 minor words: its
   factor, filled values, step-loop state and scan arrays come from
   per-domain buffers, so mostly its stamps and its result remain. *)
let test_candidate_allocation () =
  let words = candidate_words 12 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per candidate, under 1,000" words)
    true (words < 1000.0)

(* What a candidate allocates barely grows with the net: its result is
   one float per sink, its solves, stamps and scan work in per-domain
   buffers, and what else grows is mostly the step loop's final state,
   one float per unknown. A 30-pin candidate allocates at most 64 words
   more than a 12-pin one. *)
let test_candidate_allocation_flat () =
  let w12 = candidate_words 12 and w30 = candidate_words 30 in
  Printf.printf "candidate minor words: %.1f at 12 pins, %.1f at 30\n" w12 w30;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words at 30 pins, %.0f at 12: within 64" w30 w12)
    true (w30 <= w12 +. 64.0)

let failure_rule_cases =
  List.concat_map
    (fun (kind, moves) ->
      List.concat_map
        (fun (path, incremental) ->
          List.map
            (fun jobs ->
              Alcotest.test_case
                (Printf.sprintf "failure rule, %s, %s, j%d" kind path jobs)
                `Quick
                (test_failure_rule ~moves ~incremental ~jobs))
            [ 1; 2 ])
        [ ("plain", false); ("incr", true) ])
    [ ("ldrg", add_moves); ("sizing", resize_moves) ]
  @ List.concat_map
      (fun (path, incremental) ->
        List.map
          (fun jobs ->
            Alcotest.test_case
              (Printf.sprintf "failing baseline, %s, j%d" path jobs)
              `Quick
              (test_baseline_faults_drop_net ~incremental ~jobs))
          [ 1; 2 ])
      [ ("plain", false); ("incr", true) ]

let suites =
  [ ( "pool",
      [ Alcotest.test_case "map = List.map, any worker count" `Quick
          test_map_matches_list_map;
        Alcotest.test_case "lowest-index exception" `Quick
          test_map_raises_lowest_index;
        Alcotest.test_case "nested maps" `Quick test_nested_maps;
        Alcotest.test_case "parallel effects all land" `Quick
          test_parallel_effects_all_land;
        Alcotest.test_case "map after shutdown" `Quick
          test_map_after_shutdown;
        QCheck_alcotest.to_alcotest prop_ldrg_trace_identical_under_jobs;
        Alcotest.test_case "spice trace identical under jobs" `Quick
          test_ldrg_spice_trace_identical;
        Alcotest.test_case "h1 under net fan-out" `Quick
          test_h1_under_net_fanout;
        Alcotest.test_case "table2 rows identical under jobs" `Quick
          test_table_rows_identical_under_jobs;
        Alcotest.test_case "cache bit-identical + hit" `Quick
          test_cache_bit_identical_and_hit;
        Alcotest.test_case "cache key discriminates" `Quick
          test_cache_key_discriminates;
        Alcotest.test_case "cache key coverage" `Quick test_cache_key_coverage;
        Alcotest.test_case "edit keys: budget round one from memo" `Quick
          test_budget_round_one_from_memo;
        Alcotest.test_case "spice candidate allocates under 1k words" `Quick
          test_candidate_allocation;
        Alcotest.test_case "spice candidate allocation flat in pins" `Quick
          test_candidate_allocation_flat;
        Alcotest.test_case "no incremental scorer for elmore and rlc" `Quick
          test_unsupported_models_have_no_scorer;
        Alcotest.test_case "edit keys: one trial, two bases" `Quick
          test_same_trial_two_bases;
        Alcotest.test_case "edit keys: disabled cache stores nothing" `Quick
          test_scorer_without_cache;
        Alcotest.test_case "cache disabled passthrough" `Quick
          test_cache_disabled_passthrough;
        Alcotest.test_case "cache hit by harness" `Quick
          test_cache_hit_by_harness;
        Alcotest.test_case "cache bound entries" `Quick
          test_cache_bound_entries;
        Alcotest.test_case "cache keeps storing past 200k keys" `Quick
          test_cache_bounded_generations ]
      @ failure_rule_cases ) ]
