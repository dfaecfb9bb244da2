(* bench_diff: compare two nontree-bench-v1 baselines section by section.

     bin/bench_diff.exe OLD.json NEW.json
     bin/bench_diff.exe --threshold 0.1 OLD.json NEW.json

   Prints, for every section of NEW, its wall time in both files; the
   change in wall time, oracle calls, incremental evaluations,
   transient steps and memo hits; and the transient steps per
   evaluation (a memo lookup) in both files. Exit 0 when no section's
   wall time grew by more than the threshold (a fraction of the old
   time, default 0.25); 1 when one did; 2 on usage, IO or schema
   errors. Sections whose wall
   time is under [min_wall] seconds in both files are shown but not
   gated: at that size a quarter is timer noise.

   The bechamel section's count deltas print as "-": Bechamel repeats
   each kernel as often as its time quota allows, so its counts differ
   between two runs of one build. Its wall time is shown and gated like
   any other section's.

   Then it prints the run-level counts of the [incremental] block (rank-1
   updates, incremental hits and fallbacks, sparse factorisations,
   refactors and refactor fallbacks) in both files, with their change.
   They are shown, not gated. *)

let schema = "nontree-bench-v1"
let usage = "usage: bench_diff [--threshold F] OLD.json NEW.json"
let min_wall = 0.5
let repeats_by_time name = name = "bechamel"

let run_counts =
  [ "rank1_updates"; "hits"; "fallbacks"; "sparse_factorizations";
    "refactors"; "refactor_fallbacks" ]

let die fmt =
  Printf.ksprintf (fun s -> prerr_endline ("bench_diff: " ^ s); exit 2) fmt

type section = {
  wall_s : float;
  oracle_calls : int;
  incremental_evals : int;
  spice_steps : int;
  cache_hits : int;
  cache_misses : int;
}

(* Transient steps per evaluation: every evaluation is one memo lookup. *)
let steps_per_eval s =
  let evals = s.cache_hits + s.cache_misses in
  if evals = 0 then "-"
  else Printf.sprintf "%.2f" (float_of_int s.spice_steps /. float_of_int evals)

let load path =
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error e -> die "%s" e
  in
  let json =
    match Obs.Json.of_string text with
    | Ok j -> j
    | Error e -> die "%s: invalid JSON: %s" path e
  in
  let field k j =
    match Obs.Json.member k j with
    | Some v -> v
    | None -> die "%s: missing %S" path k
  in
  let number k j =
    match field k j with
    | Obs.Json.Int i -> float_of_int i
    | Obs.Json.Float f -> f
    | _ -> die "%s: %S is not a number" path k
  in
  let int k j =
    match field k j with
    | Obs.Json.Int i -> i
    | _ -> die "%s: %S is not an integer" path k
  in
  (match field "schema" json with
  | Obs.Json.String s when s = schema -> ()
  | _ -> die "%s: schema is not %S" path schema);
  let incremental =
    let block = field "incremental" json in
    List.map (fun k -> (k, int k block)) run_counts
  in
  let sections =
    match field "sections" json with
    | Obs.Json.List l ->
        List.map
          (fun s ->
            match field "name" s with
            | Obs.Json.String name ->
                ( name,
                  { wall_s = number "wall_s" s;
                    oracle_calls = int "oracle_calls" s;
                    incremental_evals = int "incremental_evals" s;
                    spice_steps = int "spice_steps" s;
                    cache_hits = int "cache_hits" s;
                    cache_misses = int "cache_misses" s } )
            | _ -> die "%s: a section name is not a string" path)
          l
    | _ -> die "%s: \"sections\" is not a list" path
  in
  (incremental, sections)

let () =
  let threshold = ref 0.25 and files = ref [] in
  Arg.parse
    [ ( "--threshold",
        Arg.Set_float threshold,
        "F  largest allowed wall-time growth, as a fraction (default 0.25)" ) ]
    (fun f -> files := f :: !files)
    usage;
  let old_path, new_path =
    match List.rev !files with
    | [ o; n ] -> (o, n)
    | _ -> die "%s" usage
  in
  let old_run, old = load old_path and cur_run, cur = load new_path in
  Printf.printf "%-10s %9s %9s %8s %13s %18s %14s %11s %17s\n" "section"
    "old_s" "new_s" "wall" "oracle_calls" "incremental_evals" "spice_steps"
    "cache_hits" "steps/eval";
  let regressions =
    List.filter
      (fun (name, n) ->
        match List.assoc_opt name old with
        | None ->
            Printf.printf "%-10s %9s %9.3f   (new section)\n" name "-" n.wall_s;
            false
        | Some o ->
            let growth =
              if o.wall_s > 0.0 then (n.wall_s -. o.wall_s) /. o.wall_s
              else if n.wall_s > 0.0 then infinity
              else 0.0
            in
            let gated = Float.max o.wall_s n.wall_s >= min_wall in
            let regressed = gated && growth > !threshold in
            let delta count =
              if repeats_by_time name then "-"
              else Printf.sprintf "%+d" (count n - count o)
            in
            Printf.printf
              "%-10s %9.3f %9.3f %+7.1f%% %13s %18s %14s %11s %17s%s\n"
              name o.wall_s n.wall_s (100.0 *. growth)
              (delta (fun s -> s.oracle_calls))
              (delta (fun s -> s.incremental_evals))
              (delta (fun s -> s.spice_steps))
              (delta (fun s -> s.cache_hits))
              (steps_per_eval o ^ " -> " ^ steps_per_eval n)
              (if regressed then "  REGRESSED" else "");
            regressed)
      cur
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name cur) then
        Printf.printf "%-10s (only in %s)\n" name old_path)
    old;
  Printf.printf "\n%-22s %12s %12s %10s\n" "incremental" "old" "new" "delta";
  List.iter
    (fun k ->
      let o = List.assoc k old_run and n = List.assoc k cur_run in
      Printf.printf "%-22s %12d %12d %+10d\n" k o n (n - o))
    run_counts;
  match regressions with
  | [] ->
      Printf.printf "ok: no section's wall time grew by more than %.0f%%\n"
        (100.0 *. !threshold)
  | l ->
      Printf.printf "%d section(s) grew by more than %.0f%%: %s\n"
        (List.length l) (100.0 *. !threshold)
        (String.concat ", " (List.map fst l));
      exit 1
