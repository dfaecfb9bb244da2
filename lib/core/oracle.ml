let src = Logs.Src.create "nontree.oracle" ~doc:"Greedy-loop delay oracle"

module Log = (val Logs.src_log src : Logs.LOG)

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

  type score = float Spice.Engine.bounded

  (* Plain keys never meet edit keys, so a plain lookup only ever finds
     [Plain] and an edit lookup [Edit]. *)
  type entry = Plain of (int * float) list | Edit of score

  type round = { digest : Digest.t; hash : int }
  type edit = Add of int * int | Resize of int * int * float

  type key = Plain_key of Digest.t | Edit_key of round * edit

  (* One step of an integer hash: the multiply spreads each input bit
     upward, the shift folds the high bits back into the low ones the
     table indexes by. *)
  let mix h x =
    let h = (h lxor x) * 0x2127599bf4325c37 in
    h lxor (h lsr 32)

  let bits w = Int64.bits_of_float w

  (* A resize's width enters by its bits: widths one ulp apart are two
     keys, and a key always equals itself. *)
  let same_edit a b =
    match (a, b) with
    | Add (u, v), Add (u', v') -> u = u' && v = v'
    | Resize (u, v, w), Resize (u', v', w') ->
        u = u' && v = v' && bits w = bits w'
    | Add _, Resize _ | Resize _, Add _ -> false

  module Key = struct
    type t = key

    let equal a b =
      match (a, b) with
      | Plain_key d, Plain_key d' -> String.equal d d'
      | Edit_key (r, e), Edit_key (r', e') ->
          (r == r' || String.equal r.digest r'.digest) && same_edit e e'
      | Plain_key _, Edit_key _ | Edit_key _, Plain_key _ -> false

    let hash = function
      | Plain_key d -> Hashtbl.hash d
      | Edit_key (r, Add (u, v)) -> mix (mix (mix r.hash 1) u) v
      | Edit_key (r, Resize (u, v, w)) ->
          let b = bits w in
          mix
            (mix
               (mix (mix (mix r.hash 2) u) v)
               (Int64.to_int b))
            (Int64.to_int (Int64.shift_right_logical b 32))
  end

  module Tbl = Hashtbl.Make (Key)

  (* Both generations are read; results go into [young], which replaces
     [old] when it fills. *)
  let young = ref (Tbl.create 4096)
  let old = ref (Tbl.create 0)

  let set_enabled b = Atomic.set enabled_flag b
  let enabled () = Atomic.get enabled_flag

  let reset () =
    Mutex.lock lock;
    Tbl.reset !young;
    Tbl.reset !old;
    Mutex.unlock lock;
    Obs.Counter.set hits 0;
    Obs.Counter.set misses 0

  let stats () =
    Mutex.lock lock;
    let entries = Tbl.length !young + Tbl.length !old in
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

  let round ~model ~tech r =
    let digest = digest ~model ~tech r in
    { digest; hash = Hashtbl.hash digest }

  let answers ~cutoff = function
    | Plain _ | Edit (Spice.Engine.Exact _) -> true
    | Edit (Spice.Engine.Above b) -> b > cutoff

  (* What a lookup found: an entry that answers it, a bound too low to
     answer it in the generation that holds it, or nothing. *)
  type found = Hit of entry | Stale of entry Tbl.t | Absent

  (* A counted lookup: every probe is exactly one hit or one miss. An
     exact entry answers any cutoff, a bound only a lower one. *)
  let lookup ~cutoff k =
    Mutex.lock lock;
    let found =
      match Tbl.find_opt !young k with
      | Some e -> if answers ~cutoff e then Hit e else Stale !young
      | None -> (
          match Tbl.find_opt !old k with
          | Some e -> if answers ~cutoff e then Hit e else Stale !old
          | None -> Absent)
    in
    Mutex.unlock lock;
    Obs.Counter.incr (match found with Hit _ -> hits | _ -> misses);
    found

  let memo_under ~cutoff k compute =
    match lookup ~cutoff k with
    | Hit e -> e
    | (Stale _ | Absent) as miss ->
        (* Computed outside the lock; two domains racing on the same key
           both compute a valid answer, and the second store overwrites
           the first. A [compute] that raises stores nothing, so a retry
           under fault injection may still succeed. *)
        let e = compute () in
        Mutex.lock lock;
        (match miss with
        | Stale tbl when tbl == !young || tbl == !old ->
            (* A refined bound stays in its generation, so refining
               never moves the generations' turnover. *)
            Tbl.replace tbl k e
        | _ ->
            if Tbl.length !young >= generation then (
              old := !young;
              young := Tbl.create 4096);
            Tbl.replace !young k e);
        Mutex.unlock lock;
        e

  let plain = function Plain ds -> ds | Edit _ -> assert false
  let edited = function Edit s -> s | Plain _ -> assert false

  let find_delays ~model ~tech r =
    if not (Atomic.get enabled_flag) then None
    else
      match
        lookup ~cutoff:Float.infinity (Plain_key (digest ~model ~tech r))
      with
      | Hit e -> Some (plain e)
      | Stale _ | Absent -> None

  let memo ~model ~tech r compute =
    if not (Atomic.get enabled_flag) then compute ()
    else
      plain
        (memo_under ~cutoff:Float.infinity
           (Plain_key (digest ~model ~tech r))
           (fun () -> Plain (compute ())))

  (* A plain key is a routing's digest, an edit key a round and an
     edit: two constructors, so the two never meet. *)
  let memo_edit ~cutoff round edit compute =
    if not (Atomic.get enabled_flag) then compute ()
    else
      edited
        (memo_under ~cutoff (Edit_key (round, edit)) (fun () ->
             Edit (compute ())))

  let sink_delays ~model ~tech r =
    memo ~model ~tech r (fun () -> Delay.Robust.sink_delays_exn ~model ~tech r)

  let max_delay ~model ~tech r =
    Delay.Sinks.max_delay (sink_delays ~model ~tech r)
end

