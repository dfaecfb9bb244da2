let src = Logs.Src.create "nontree.oracle" ~doc:"Greedy-loop delay oracle"

module Log = (val Logs.src_log src : Logs.LOG)

let net_of_points points =
  match Geom.Net.of_list points with
  | net -> Ok net
  | exception Invalid_argument msg -> Error (Nontree_error.Invalid_net msg)

let candidate score =
  match Nontree_error.protect score with
  | Ok v -> Some v
  | Error e ->
      Nontree_error.Counters.incr_dropped_evaluations ();
      Log.warn (fun f ->
          f "dropping candidate evaluation: %s" (Nontree_error.to_string e));
      None

(* Memo layer over the robust oracle ------------------------------------ *)

module Cache = struct
  type stats = { hits : int; misses : int; entries : int }

  let enabled_flag = Atomic.make true

  (* Registry counters, so the manifest's counter section carries the
     cache traffic without extra plumbing; [stats] reads them back. *)
  let hits = Obs.Counter.make "oracle.cache.hits"
  let misses = Obs.Counter.make "oracle.cache.misses"

  let generation = 100_000
  let lock = Mutex.create ()

  (* Both generations are read; results go into [young], which replaces
     [old] when it fills. *)
  let young = ref (Hashtbl.create 4096)
  let old = ref (Hashtbl.create 0)

  let set_enabled b = Atomic.set enabled_flag b
  let enabled () = Atomic.get enabled_flag

  let reset () =
    Mutex.lock lock;
    Hashtbl.reset !young;
    Hashtbl.reset !old;
    Mutex.unlock lock;
    Obs.Counter.set hits 0;
    Obs.Counter.set misses 0

  let stats () =
    Mutex.lock lock;
    let entries = Hashtbl.length !young + Hashtbl.length !old in
    Mutex.unlock lock;
    { hits = Obs.Counter.value hits;
      misses = Obs.Counter.value misses;
      entries }

  let summary () =
    let s = stats () in
    let total = s.hits + s.misses in
    (* An enabled cache that saw no traffic still reports — with an
       explicit "n/a" hit rate, never 0/0 = NaN. Only a disabled cache
       that saw no traffic stays silent. *)
    if total = 0 && not (Atomic.get enabled_flag) then None
    else
      Some
        (Printf.sprintf
           "oracle cache: %d hits, %d misses (%s hit rate), %d entries" s.hits
           s.misses
           (if total = 0 then "n/a"
            else
              Printf.sprintf "%.1f%%"
                (100.0 *. float_of_int s.hits /. float_of_int total))
           s.entries)

  (* Everything a routing's result depends on, serialised structurally
     and digested: the model (with its full SPICE configuration), the
     technology constants, the vertex geometry and the edge set with
     widths. Marshal writes floats bit-exactly, so two routings share a
     digest iff these inputs are bit-identical, and a field added to any
     of these types is covered without code here. No_sharing makes the
     bytes depend on values only, not on physical sharing. Wgraph stores
     edges canonically, so structurally equal routings built along
     different edit paths produce the same digest. *)
  let digest ~model ~tech r =
    Digest.string
      (Marshal.to_string
         ( (model : Delay.Model.t),
           (tech : Circuit.Technology.t),
           Routing.num_terminals r,
           Routing.points r,
           Routing.widths r )
         [ Marshal.No_sharing ])

  type round = Digest.t

  let round = digest

  (* A counted lookup: every probe is exactly one hit or one miss. *)
  let lookup k =
    Mutex.lock lock;
    let v =
      match Hashtbl.find_opt !young k with
      | None -> Hashtbl.find_opt !old k
      | found -> found
    in
    Mutex.unlock lock;
    Obs.Counter.incr (if Option.is_some v then hits else misses);
    v

  let find_delays ~model ~tech r =
    if not (Atomic.get enabled_flag) then None
    else lookup (digest ~model ~tech r)

  let memo_under k compute =
    match lookup k with
    | Some ds -> ds
    | None ->
        (* Computed outside the lock; two domains racing on the same key
           both compute the same value, and the second store is a no-op
           overwrite. A [compute] that raises stores nothing, so a retry
           under fault injection may still succeed. *)
        let ds = compute () in
        Mutex.lock lock;
        if Hashtbl.length !young >= generation then (
          old := !young;
          young := Hashtbl.create 4096);
        Hashtbl.replace !young k ds;
        Mutex.unlock lock;
        ds

  let memo ~model ~tech r compute =
    if not (Atomic.get enabled_flag) then compute ()
    else memo_under (digest ~model ~tech r) compute

  (* A plain key is one digest; an edit key is a round's digest followed
     by the edit's non-empty encoding, so the two never meet. *)
  let memo_edit round edit compute =
    if String.length edit = 0 then
      invalid_arg "Oracle.Cache.memo_edit: empty edit";
    if not (Atomic.get enabled_flag) then compute ()
    else memo_under (round ^ edit) compute

  let sink_delays ~model ~tech r =
    memo ~model ~tech r (fun () -> Delay.Robust.sink_delays_exn ~model ~tech r)

  let max_delay ~model ~tech r =
    List.fold_left
      (fun acc (_, d) -> Float.max acc d)
      0.0
      (sink_delays ~model ~tech r)
end

