(* Tests for the observability layer (lib/obs): registry semantics
   under a Domain pool, span nesting, manifest round-trips — and
   regression tests for the measurement bugfixes that shipped with
   it. *)

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec scan i = i + m <= n && (String.sub hay i m = needle || scan (i + 1)) in
  scan 0

(* Spans and histogram observations record only while enabled; leave
   the global flag the way we found it even when a check fails. *)
let with_obs_enabled f =
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

(* Counters -------------------------------------------------------------- *)

let test_counter_basics () =
  let c = Obs.Counter.make "test.basics" in
  Obs.Counter.set c 0;
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  Alcotest.(check int) "value" 42 (Obs.Counter.value c);
  Alcotest.(check string) "name" "test.basics" (Obs.Counter.name c);
  let c' = Obs.Counter.make "test.basics" in
  Obs.Counter.incr c';
  Alcotest.(check int) "make is idempotent (same cell)" 43 (Obs.Counter.value c);
  Alcotest.(check bool) "snapshot carries it" true
    (List.mem ("test.basics", 43) (Obs.Counter.snapshot ()))

let test_counter_under_domains () =
  let c = Obs.Counter.make "test.domains" in
  Obs.Counter.set c 0;
  let items = List.init 400 Fun.id in
  Pool.with_pool ~jobs:4 (fun pool ->
      ignore (Pool.map pool (fun _ -> Obs.Counter.incr c) items));
  Alcotest.(check int) "no lost increments across 4 domains" 400
    (Obs.Counter.value c)

(* Histograms ------------------------------------------------------------ *)

let test_histogram_buckets () =
  let h = Obs.Histogram.make "test.hist" ~buckets:[| 1.0; 10.0; 100.0 |] in
  Obs.Histogram.reset h;
  with_obs_enabled (fun () ->
      List.iter (Obs.Histogram.observe h) [ 0.5; 1.0; 5.0; 99.0; 1000.0 ]);
  let v = Obs.Histogram.view h in
  Alcotest.(check (array int)) "bucket counts (incl. overflow)"
    [| 2; 1; 1; 1 |] v.Obs.Histogram.view_counts;
  Alcotest.(check int) "count" 5 v.Obs.Histogram.count;
  Alcotest.(check (float 1e-9)) "total" 1105.5 v.Obs.Histogram.total

let test_histogram_disabled_noop () =
  let h = Obs.Histogram.make "test.hist.noop" ~buckets:[| 1.0 |] in
  Obs.Histogram.reset h;
  Obs.set_enabled false;
  Obs.Histogram.observe h 0.5;
  Alcotest.(check int) "observe while disabled records nothing" 0
    (Obs.Histogram.view h).Obs.Histogram.count

let test_histogram_bad_buckets () =
  Alcotest.check_raises "non-increasing buckets rejected"
    (Invalid_argument "Obs.Histogram.make: buckets must increase") (fun () ->
      ignore (Obs.Histogram.make "test.bad" ~buckets:[| 2.0; 1.0 |]))

let test_histogram_under_domains () =
  let h = Obs.Histogram.make "test.hist.domains" ~buckets:[| 0.5 |] in
  Obs.Histogram.reset h;
  with_obs_enabled (fun () ->
      Pool.with_pool ~jobs:4 (fun pool ->
          ignore
            (Pool.map pool
               (fun i -> Obs.Histogram.observe h (if i mod 2 = 0 then 0.0 else 1.0))
               (List.init 200 Fun.id))));
  let v = Obs.Histogram.view h in
  Alcotest.(check int) "count" 200 v.Obs.Histogram.count;
  Alcotest.(check (array int)) "split" [| 100; 100 |] v.Obs.Histogram.view_counts

(* Spans ----------------------------------------------------------------- *)

let test_span_nesting () =
  Obs.Span.reset ();
  with_obs_enabled (fun () ->
      Obs.span "outer" (fun () ->
          Obs.span "inner" (fun () -> ());
          Obs.span "inner" (fun () -> ())));
  let spans = Obs.Span.all () in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  let outer = Option.get (Obs.Span.find "outer") in
  Alcotest.(check (option int)) "outer has no parent" None outer.Obs.Span.parent;
  List.iter
    (fun (sp : Obs.Span.t) ->
      if sp.Obs.Span.name = "inner" then begin
        Alcotest.(check (option int)) "inner's parent is outer"
          (Some outer.Obs.Span.id) sp.Obs.Span.parent;
        Alcotest.(check bool) "inner within outer" true
          (sp.Obs.Span.dur_s <= outer.Obs.Span.dur_s +. 1e-6)
      end)
    spans;
  Alcotest.(check bool) "durations are non-negative" true
    (List.for_all (fun (sp : Obs.Span.t) -> sp.Obs.Span.dur_s >= 0.0) spans)

let test_span_records_on_raise () =
  Obs.Span.reset ();
  with_obs_enabled (fun () ->
      try Obs.span "raiser" (fun () -> failwith "boom")
      with Failure _ -> ());
  Alcotest.(check bool) "interrupted span still recorded" true
    (Obs.Span.find "raiser" <> None)

let test_span_disabled_noop () =
  Obs.Span.reset ();
  Obs.set_enabled false;
  Alcotest.(check int) "span returns f's value" 7 (Obs.span "off" (fun () -> 7));
  Alcotest.(check int) "nothing recorded while disabled" 0
    (List.length (Obs.Span.all ()));
  Alcotest.(check bool) "no summary without spans" true
    (Obs.span_summary () = None)

let test_span_summary () =
  Obs.Span.reset ();
  with_obs_enabled (fun () ->
      Obs.span "alpha" (fun () -> Obs.span "beta" (fun () -> ()));
      Obs.span "beta" (fun () -> ()));
  match Obs.span_summary () with
  | None -> Alcotest.fail "expected a summary"
  | Some s ->
      Alcotest.(check bool) "header" true (contains s "trace spans");
      Alcotest.(check bool) "has alpha" true (contains s "alpha");
      Alcotest.(check bool) "has beta" true (contains s "beta")

(* JSON ------------------------------------------------------------------ *)

(* Each LDRG round's set-up (the scorer's base build and factorisation)
   is its own [incremental.prepare] span, a sibling of the round's
   [ldrg.iteration], not a part of it: one per round. *)
let test_round_prepare_span () =
  Obs.Span.reset ();
  let tech = Circuit.Technology.table1 in
  let mst =
    Routing.mst_of_net
      (Geom.Netgen.uniform (Rng.create 11)
         ~region:(Geom.Rect.square 10_000.0) ~pins:8)
  in
  with_obs_enabled (fun () ->
      ignore
        (Nontree.Ldrg.run ~max_edges:2
           ~model:(Delay.Model.Spice Delay.Model.fast_spice) ~tech mst));
  let spans = Obs.Span.all () in
  let named name =
    List.filter (fun (sp : Obs.Span.t) -> sp.Obs.Span.name = name) spans
  in
  let prepares = named "incremental.prepare"
  and iterations = named "ldrg.iteration" in
  Alcotest.(check bool) "rounds ran" true (iterations <> []);
  Alcotest.(check int) "one set-up per round" (List.length iterations)
    (List.length prepares);
  List.iter
    (fun (sp : Obs.Span.t) ->
      Alcotest.(check bool) "set-up outside the round's scoring" true
        (List.for_all
           (fun (it : Obs.Span.t) -> sp.Obs.Span.parent <> Some it.Obs.Span.id)
           iterations))
    prepares

let test_json_roundtrip () =
  let v =
    Obs.Json.(
      Obj
        [ ("s", String "a\"b\\c\nd\te\x01");
          ("i", Int (-42));
          ("f", Float 0.1);
          ("whole", Float 3.0);
          ("t", Bool true);
          ("nil", Null);
          ("l", List [ Int 1; Float 2.5; String "x"; List []; Obj [] ]) ])
  in
  match Obs.Json.of_string (Obs.Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round-trips exactly" true (v = v')
  | Error e -> Alcotest.fail ("parse failed: " ^ e)

let test_json_parser_edges () =
  let ok s v =
    match Obs.Json.of_string s with
    | Ok v' -> Alcotest.(check bool) ("parse " ^ s) true (v = v')
    | Error e -> Alcotest.fail (s ^ ": " ^ e)
  in
  ok "null" Obs.Json.Null;
  ok "[1, 2.5, \"\\u0041\"]"
    Obs.Json.(List [ Int 1; Float 2.5; String "A" ]);
  ok "{\"a\": {\"b\": []}}" Obs.Json.(Obj [ ("a", Obj [ ("b", List []) ]) ]);
  (match Obs.Json.of_string "{\"a\": }" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted malformed object");
  (match Obs.Json.of_string "[1, 2] trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted trailing garbage");
  Alcotest.(check bool) "non-finite floats serialise as null" true
    (contains Obs.Json.(to_string (List [ Float nan ])) "null")

(* Manifest -------------------------------------------------------------- *)

let test_manifest_roundtrip () =
  Obs.Span.reset ();
  with_obs_enabled (fun () -> Obs.span "manifest.test" (fun () -> ()));
  let c = Obs.Counter.make "test.manifest" in
  Obs.Counter.set c 3;
  let path = Filename.temp_file "obs" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Obs.Manifest.write ~path
        ~argv:[ "prog"; "--flag" ]
        ~meta:[ ("seed", Obs.Json.Int 1994) ]
        ~extra:[ ("cache", Obs.Json.Obj [ ("hits", Obs.Json.Int 0) ]) ]
        ();
      let text = In_channel.with_open_bin path In_channel.input_all in
      match Obs.Json.of_string text with
      | Error e -> Alcotest.fail ("manifest does not parse: " ^ e)
      | Ok json ->
          let str k =
            match Obs.Json.member k json with
            | Some (Obs.Json.String s) -> s
            | _ -> Alcotest.fail ("missing string " ^ k)
          in
          Alcotest.(check string) "schema" "nontree-obs-v1" (str "schema");
          Alcotest.(check bool) "git is non-empty" true (str "git" <> "");
          (match Obs.Json.member "argv" json with
          | Some (Obs.Json.List [ Obs.Json.String a; Obs.Json.String b ]) ->
              Alcotest.(check (pair string string)) "argv" ("prog", "--flag")
                (a, b)
          | _ -> Alcotest.fail "argv shape");
          (match Obs.Json.member "counters" json with
          | Some counters ->
              Alcotest.(check bool) "registry counter serialised" true
                (Obs.Json.member "test.manifest" counters
                = Some (Obs.Json.Int 3))
          | None -> Alcotest.fail "no counters");
          (match Obs.Json.member "spans" json with
          | Some (Obs.Json.List spans) ->
              Alcotest.(check bool) "span serialised" true
                (List.exists
                   (fun sp ->
                     Obs.Json.member "name" sp
                     = Some (Obs.Json.String "manifest.test"))
                   spans)
          | _ -> Alcotest.fail "no spans");
          Alcotest.(check bool) "extra section survives" true
            (Obs.Json.member "cache" json <> None))

(* Regression: Measure.first_crossing ------------------------------------ *)

let test_first_crossing_initially_above () =
  (* A falling waveform that starts above the level never crosses from
     below; the old code reported a spurious times.(0). *)
  let times = [| 0.0; 1.0; 2.0 |] and values = [| 2.0; 1.5; 1.2 |] in
  Alcotest.(check (option (float 1e-12))) "no crossing" None
    (Spice.Measure.first_crossing ~times ~values ~level:1.0)

let test_first_crossing_starts_at_level () =
  let times = [| 3.0; 4.0 |] and values = [| 1.0; 2.0 |] in
  Alcotest.(check (option (float 1e-12))) "exact first sample" (Some 3.0)
    (Spice.Measure.first_crossing ~times ~values ~level:1.0)

let test_first_crossing_dip_then_rise () =
  (* Starts high, dips below, rises back through the level: the crossing
     is the *second* rise, interpolated between t=2 (0.5) and t=3 (1.5),
     i.e. t = 2.5. *)
  let times = [| 0.0; 1.0; 2.0; 3.0 |] in
  let values = [| 2.0; 0.8; 0.5; 1.5 |] in
  Alcotest.(check (option (float 1e-12))) "interpolated rise" (Some 2.5)
    (Spice.Measure.first_crossing ~times ~values ~level:1.0)

let test_first_crossing_plain_rise () =
  (* The common case must be unchanged: interpolate in the first
     below→above interval. *)
  let times = [| 0.0; 1.0 |] and values = [| 0.0; 2.0 |] in
  Alcotest.(check (option (float 1e-12))) "midpoint" (Some 0.5)
    (Spice.Measure.first_crossing ~times ~values ~level:1.0)

(* Regression: Measure.overshoot on empty waveforms ----------------------- *)

let test_overshoot_empty_rejected () =
  Alcotest.check_raises "empty waveform"
    (Invalid_argument "Measure.overshoot: empty waveform") (fun () ->
      ignore (Spice.Measure.overshoot ~values:[||] ~vfinal:1.0))

let test_overshoot_values () =
  Alcotest.(check (float 1e-12)) "underdamped peak" 0.5
    (Spice.Measure.overshoot ~values:[| 0.0; 1.5; 1.0 |] ~vfinal:1.0);
  Alcotest.(check (float 1e-12)) "monotone rise has none" 0.0
    (Spice.Measure.overshoot ~values:[| 0.0; 0.5; 1.0 |] ~vfinal:1.0)

(* Regression: cache summary hit rate ------------------------------------ *)

let test_cache_summary_idle () =
  let was_enabled = Nontree.Oracle.Cache.enabled () in
  Nontree.Oracle.Cache.reset ();
  Nontree.Oracle.Cache.set_enabled false;
  Alcotest.(check bool) "disabled and idle: no summary" true
    (Nontree.Oracle.Cache.summary () = None);
  Nontree.Oracle.Cache.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Nontree.Oracle.Cache.set_enabled was_enabled;
      Nontree.Oracle.Cache.reset ())
    (fun () ->
      match Nontree.Oracle.Cache.summary () with
      | None -> Alcotest.fail "enabled cache should summarise even when idle"
      | Some line ->
          Alcotest.(check bool) "n/a, never NaN" true (contains line "n/a");
          Alcotest.(check bool) "no nan leaks" false (contains line "nan"))

(* Regression: Table.render groups non-contiguous labels ------------------ *)

let test_render_non_contiguous_labels () =
  let row d =
    { Nontree.Stats.n = 1;
      all_delay = d;
      all_cost = 1.0;
      pct_winners = 0.0;
      win_delay = None;
      win_cost = None }
  in
  let rows =
    [ { Harness.Table.label = "Alpha"; size = 5; row = Some (row 0.9) };
      { Harness.Table.label = "Beta"; size = 5; row = Some (row 0.8) };
      { Harness.Table.label = "Alpha"; size = 10; row = Some (row 0.7) } ]
  in
  let text = Harness.Table.render ~title:"T" ~baseline:"MST" rows in
  let count needle =
    let n = String.length text and m = String.length needle in
    let rec scan i acc =
      if i + m > n then acc
      else if String.sub text i m = needle then scan (i + 1) (acc + 1)
      else scan (i + 1) acc
    in
    scan 0 0
  in
  (* One header per label: the stray Alpha row folds into the first
     block instead of opening a duplicate one. *)
  Alcotest.(check int) "one Alpha block" 1 (count "Alpha");
  Alcotest.(check int) "one Beta block" 1 (count "Beta");
  let idx needle =
    let m = String.length needle in
    let rec find i =
      if i + m > String.length text then max_int
      else if String.sub text i m = needle then i
      else find (i + 1)
    in
    find 0
  in
  Alcotest.(check bool) "first-occurrence order" true (idx "Alpha" < idx "Beta")

let suites =
  [ ( "obs.registry",
      [ Alcotest.test_case "counter basics" `Quick test_counter_basics;
        Alcotest.test_case "counters under 4 domains" `Quick
          test_counter_under_domains;
        Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
        Alcotest.test_case "histogram disabled no-op" `Quick
          test_histogram_disabled_noop;
        Alcotest.test_case "histogram bad buckets" `Quick
          test_histogram_bad_buckets;
        Alcotest.test_case "histograms under 4 domains" `Quick
          test_histogram_under_domains ] );
    ( "obs.spans",
      [ Alcotest.test_case "nesting and parents" `Quick test_span_nesting;
        Alcotest.test_case "recorded on raise" `Quick test_span_records_on_raise;
        Alcotest.test_case "disabled no-op" `Quick test_span_disabled_noop;
        Alcotest.test_case "summary" `Quick test_span_summary;
        Alcotest.test_case "round set-up span" `Quick test_round_prepare_span
      ] );
    ( "obs.json",
      [ Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "parser edges" `Quick test_json_parser_edges;
        Alcotest.test_case "manifest round-trip" `Quick test_manifest_roundtrip ]
    );
    ( "obs.bugfixes",
      [ Alcotest.test_case "first_crossing: initially above" `Quick
          test_first_crossing_initially_above;
        Alcotest.test_case "first_crossing: starts at level" `Quick
          test_first_crossing_starts_at_level;
        Alcotest.test_case "first_crossing: dip then rise" `Quick
          test_first_crossing_dip_then_rise;
        Alcotest.test_case "first_crossing: plain rise" `Quick
          test_first_crossing_plain_rise;
        Alcotest.test_case "overshoot: empty rejected" `Quick
          test_overshoot_empty_rejected;
        Alcotest.test_case "overshoot: values" `Quick test_overshoot_values;
        Alcotest.test_case "cache summary: idle never NaN" `Quick
          test_cache_summary_idle;
        Alcotest.test_case "render: non-contiguous labels" `Quick
          test_render_non_contiguous_labels ] ) ]
