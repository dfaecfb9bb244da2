(* obs_check: validate a nontree-obs-v1 run manifest or a
   nontree-bench-v1 benchmark baseline (dispatched on the "schema"
   field).

     bin/obs_check.exe run.obs.json
     bin/obs_check.exe BENCH_nontree.json

   Exit 0 when the file parses and every required section has the
   right shape; 1 on a validation failure; 2 on usage/IO errors. Used
   by scripts/check.sh after the observability smoke run and on the
   committed benchmark baseline. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("obs_check: " ^ s); exit 1) fmt

let get name json =
  match Obs.Json.member name json with
  | Some v -> v
  | None -> fail "missing top-level key %S" name

let expect_string name = function
  | Obs.Json.String s -> s
  | _ -> fail "%S is not a string" name

let expect_obj name = function
  | Obs.Json.Obj kvs -> kvs
  | _ -> fail "%S is not an object" name

let expect_list name = function
  | Obs.Json.List vs -> vs
  | _ -> fail "%S is not a list" name

let expect_int name = function
  | Obs.Json.Int i -> i
  | _ -> fail "%S is not an integer" name

let expect_number name = function
  | Obs.Json.Int i -> float_of_int i
  | Obs.Json.Float f -> f
  | _ -> fail "%S is not a number" name

let check_span i sp =
  let ctx = Printf.sprintf "spans[%d]" i in
  let m k =
    match Obs.Json.member k sp with
    | Some v -> v
    | None -> fail "%s missing %S" ctx k
  in
  ignore (expect_int (ctx ^ ".id") (m "id"));
  (match m "parent" with
  | Obs.Json.Null | Obs.Json.Int _ -> ()
  | _ -> fail "%s.parent is neither null nor an integer" ctx);
  ignore (expect_string (ctx ^ ".name") (m "name"));
  ignore (expect_int (ctx ^ ".domain") (m "domain"));
  let start_s = expect_number (ctx ^ ".start_s") (m "start_s") in
  let dur_s = expect_number (ctx ^ ".dur_s") (m "dur_s") in
  if start_s < 0.0 then fail "%s.start_s is negative" ctx;
  if dur_s < 0.0 then fail "%s.dur_s is negative" ctx

let check_histogram (name, h) =
  let m k =
    match Obs.Json.member k h with
    | Some v -> v
    | None -> fail "histogram %S missing %S" name k
  in
  let buckets = expect_list (name ^ ".buckets") (m "buckets") in
  let counts = expect_list (name ^ ".counts") (m "counts") in
  if List.length counts <> List.length buckets + 1 then
    fail "histogram %S: %d counts for %d buckets (want buckets+1)" name
      (List.length counts) (List.length buckets);
  let count = expect_int (name ^ ".count") (m "count") in
  let sum_of_counts =
    List.fold_left (fun acc c -> acc + expect_int (name ^ ".counts[]") c) 0 counts
  in
  if count <> sum_of_counts then
    fail "histogram %S: count %d but counts sum to %d" name count sum_of_counts;
  ignore (expect_number (name ^ ".sum") (m "sum"))

let bench_schema_version = "nontree-bench-v1"

let check_bench_section i s =
  let ctx = Printf.sprintf "sections[%d]" i in
  let m k =
    match Obs.Json.member k s with
    | Some v -> v
    | None -> fail "%s missing %S" ctx k
  in
  ignore (expect_string (ctx ^ ".name") (m "name"));
  if expect_number (ctx ^ ".wall_s") (m "wall_s") < 0.0 then
    fail "%s.wall_s is negative" ctx;
  List.iter
    (fun k ->
      if expect_int (ctx ^ "." ^ k) (m k) < 0 then
        fail "%s.%s is negative" ctx k)
    [ "oracle_calls"; "incremental_evals"; "spice_steps"; "cache_hits";
      "cache_misses" ];
  let rate = expect_number (ctx ^ ".cache_hit_rate") (m "cache_hit_rate") in
  if rate < 0.0 || rate > 1.0 then fail "%s.cache_hit_rate not in [0,1]" ctx

let check_bench json =
  List.iter
    (fun k -> ignore (expect_int k (get k json)))
    [ "jobs"; "seed"; "trials" ];
  List.iteri
    (fun i v -> ignore (expect_int (Printf.sprintf "sizes[%d]" i) v))
    (expect_list "sizes" (get "sizes" json));
  if expect_number "total_wall_s" (get "total_wall_s" json) < 0.0 then
    fail "total_wall_s is negative";
  let inc = get "incremental" json in
  ignore (expect_obj "incremental" inc);
  List.iter
    (fun k ->
      match Obs.Json.member k inc with
      | Some v ->
          if expect_int ("incremental." ^ k) v < 0 then
            fail "incremental.%s is negative" k
      | None -> fail "incremental missing %S" k)
    [ "rank1_updates"; "hits"; "fallbacks"; "lu_factorizations";
      "sparse_factorizations" ];
  let sections = expect_list "sections" (get "sections" json) in
  List.iteri check_bench_section sections;
  Printf.printf "ok: bench baseline, %d sections\n" (List.length sections)

let check_manifest json =
  ignore (expect_string "git" (get "git" json));
  List.iteri
    (fun i v -> ignore (expect_string (Printf.sprintf "argv[%d]" i) v))
    (expect_list "argv" (get "argv" json));
  ignore (expect_obj "meta" (get "meta" json));
  let counters = expect_obj "counters" (get "counters" json) in
  List.iter
    (fun (name, v) ->
      if expect_int ("counters." ^ name) v < 0 then
        fail "counter %S is negative" name)
    counters;
  let histograms = expect_obj "histograms" (get "histograms" json) in
  List.iter check_histogram histograms;
  let spans = expect_list "spans" (get "spans" json) in
  List.iteri check_span spans;
  (match Obs.Json.member "cache" json with
  | None -> ()
  | Some cache ->
      let kvs = expect_obj "cache" cache in
      List.iter
        (fun k ->
          match List.assoc_opt k kvs with
          | Some v -> ignore (expect_int ("cache." ^ k) v)
          | None -> fail "cache missing %S" k)
        [ "hits"; "misses"; "entries" ]);
  Printf.printf "ok: %d counters, %d histograms, %d spans\n"
    (List.length counters) (List.length histograms) (List.length spans)

let () =
  let path =
    match Sys.argv with
    | [| _; p |] -> p
    | _ ->
        prerr_endline "usage: obs_check MANIFEST.json";
        exit 2
  in
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error e ->
      prerr_endline ("obs_check: " ^ e);
      exit 2
  in
  let json =
    match Obs.Json.of_string text with
    | Ok j -> j
    | Error e -> fail "invalid JSON: %s" e
  in
  let schema = expect_string "schema" (get "schema" json) in
  if schema = Obs.Manifest.schema_version then check_manifest json
  else if schema = bench_schema_version then check_bench json
  else
    fail "schema %S, want %S or %S" schema Obs.Manifest.schema_version
      bench_schema_version
