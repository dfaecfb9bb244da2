(** Robust oracle access for the greedy loops.

    The loops (LDRG, pruning, wire sizing, ...) evaluate one baseline
    routing followed by many candidate edits. Failure semantics differ:
    if the *baseline* cannot be evaluated the whole net is unusable and
    the typed error propagates (callers drop the net and count it),
    whereas a failed *candidate* evaluation ({!candidate}) merely
    discards that candidate. Both paths go through {!Delay.Robust}, so
    every failure has already survived retry-with-refinement and model
    degradation before reaching this rule. *)

val candidate : (unit -> 'a) -> 'a option
(** [candidate score] is [Some (score ())], or [None] when it raises
    {!Nontree_error.Error}: logged, counted once under
    [oracle.evaluations.dropped], and a candidate that cannot win.
    Stateless; other exceptions pass through. *)

(** Memo layer over the fault-tolerant oracle.

    Evaluations repeat: the budget ladder re-scores the same trials,
    CSORG probes overlapping edge sets, and the harness re-measures
    routings a search already evaluated. Entries come in two kinds,
    with keys that never meet:

    - {e plain} entries ({!memo}, {!sink_delays}, {!find_delays}) hold
      the robust oracle's delays for a routing, keyed by a digest of
      everything they depend on, serialised structurally: the delay
      model (including its SPICE configuration), the technology
      constants, the vertex geometry and the edge set with widths.
      Floats enter bit-exactly, and structurally equal routings share a
      key however they were built.
    - {e edit} entries ({!memo_edit}) hold one float, the largest sink
      delay of one edit of a greedy round's base as the incremental
      scorer computes it, keyed by the base's {!round} (its digest and
      hash, taken once per round) and a typed {!edit}, so building and
      hashing a key costs the same whatever the routing's size. A hit
      is an exact recomputation: the same base, model, technology and
      edit. The same trial reached from two different bases has two
      entries. A SPICE trial whose scan was cut at a
      cutoff holds the bound it was cut at, which answers lookups
      with lower cutoffs only ({!memo_edit}).

    So an incremental (Sherman–Morrison) score, which may differ from
    the plain oracle in the last bits, never answers a plain lookup,
    and runs with the cache on or off print the same bytes. Enabled by
    default. Failed evaluations are never cached, so retry behaviour
    under fault injection is unaffected. All state is domain-safe: the
    tables are mutex-protected and the counters are atomics. *)
module Cache : sig
  type stats = { hits : int; misses : int; entries : int }

  val generation : int
  (** The memo's bound: lookups read two generations of at most 100,000
      entries, stores go into the newer, and the older is dropped when
      the newer fills. The first [2 * generation] stores after a
      {!reset} (the old single table's cap) are all kept, which covers
      the harness's re-use of results across extensions. *)

  val set_enabled : bool -> unit
  (** On by default; switching it off makes {!memo} and {!memo_edit}
      call their computation directly and count nothing. *)

  val enabled : unit -> bool

  val reset : unit -> unit
  (** Drop all entries and zero the hit/miss counters. *)

  val stats : unit -> stats

  val summary : unit -> string option
  (** One human-readable line ("oracle cache: H hits, M misses ...") —
      printed by the binaries next to the robustness summary. The hit
      rate reads "n/a" (never NaN) when the cache saw no traffic;
      [None] only when the cache is disabled and idle. *)

  val memo :
    model:Delay.Model.t ->
    tech:Circuit.Technology.t ->
    Routing.t ->
    (unit -> (int * float) list) ->
    (int * float) list
  (** [memo ~model ~tech r compute] returns the plain entry stored for
      [r], or runs [compute ()] and stores its result. Each call counts
      one hit or one miss. An exception from [compute] propagates and
      stores nothing. A store into a full newer generation first drops
      the older one. *)

  type round
  (** One greedy round's base routing under one model and technology:
      its digest, as a plain key would take it, and an int hash of that
      digest, both computed once. *)

  val round :
    model:Delay.Model.t -> tech:Circuit.Technology.t -> Routing.t -> round
  (** [round ~model ~tech base] digests [base] as a plain key would.
      It serialises the whole routing, so take it once per round, and
      only when the cache is {!enabled}. *)

  type edit =
    | Add of int * int  (** a new wire between u and v, as given *)
    | Resize of int * int * float
        (** wire (u, v), as given, set to this width *)
  (** One edit of a round's base, the rest of an edit entry's key. Two
      edits are the same key when their constructors and endpoints are
      equal and, for a resize, the bits of their widths: (u, v) and
      (v, u) are two keys, and so are widths one ulp apart. *)

  type score = float Spice.Engine.bounded
  (** An edit entry: a trial's largest sink delay, or [Above b], a
      lower bound on it from a scan cut at a cutoff under [b]
      ({!Spice.Engine.threshold_scan_result}). *)

  val memo_edit :
    cutoff:float -> round -> edit -> (unit -> score) -> score
  (** [memo_edit ~cutoff round edit compute] is {!memo} for an edit
      entry, keyed by [round] and [edit]. The key is hashed with integer
      arithmetic from the round's hash, the constructor, the endpoints
      and the width's bits, and compared field by field (the round by
      its digest), so a probe builds no string and costs the same
      whatever the routing's size. An exact entry answers any lookup,
      and [Above b] one whose [cutoff] is below [b]: a hit (an infinite
      [cutoff] asks for the exact delay). Otherwise the lookup is a
      miss, and [compute ()] runs and replaces the entry, in the
      generation that held it. So every call is one hit or one miss.
      Capacity and failure behaviour are {!memo}'s. *)

  val find_delays :
    model:Delay.Model.t ->
    tech:Circuit.Technology.t ->
    Routing.t ->
    (int * float) list option
  (** Counted lookup of a plain entry without evaluation (always
      [None] when disabled). *)

  val sink_delays :
    model:Delay.Model.t ->
    tech:Circuit.Technology.t ->
    Routing.t ->
    (int * float) list
  (** Memoised {!Delay.Robust.sink_delays_exn}, as a plain entry.
      @raise Nontree_error.Error as the underlying oracle does. *)

  val max_delay :
    model:Delay.Model.t -> tech:Circuit.Technology.t -> Routing.t -> float
  (** Maximum sink delay via {!sink_delays} — the objective of the
      greedy loops.
      @raise Nontree_error.Error as the underlying oracle does. *)
end
