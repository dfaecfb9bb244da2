(** Incremental (single-conductance Sherman–Morrison) edit scoring
    for the greedy loops.

    A greedy round scores many one-wire edits of one base routing:
    LDRG adds wires, wire sizing widens them. Instead of rebuilding and
    re-factoring the system per trial, a round is one
    {!Delay.Model.prepare} of its base, and each edit is
    {!Delay.Model.score} of the wire it changes: the scorer the plain
    oracle runs with no edit, so both paths share one set-up, one fault
    draw per query and one conversion of crossings to delays. A SPICE
    trial's companion matrix, tied to the trial's own horizon-derived
    timestep, is written slot by slot into the pattern the round
    compiled ({!Spice.Transient.compile}) and factored: refactored on
    the plan of the round's G factorisation when
    the wire appends at most one unknown (every fast-profile trial), by
    the full kernel otherwise.

    Every incremental evaluation is memoised through
    {!Oracle.Cache.memo_edit}. A score depends only on the round's base,
    the model, the technology and the move, so its key is exactly that:
    the base's digest, taken once per round, plus {!edit_key}. A key
    costs the same to build whatever the routing's size. Later rounds
    and runs that score the same edit of the same base (the budget
    ladder, a replayed search) hit. A trial reached from another base is
    scored afresh. The entry is one float: the largest of
    {!Delay.Model.score}'s per-sink delays, folded before the memo sees
    them ({!Delay.Sinks.largest}). A SPICE trial whose scan was cut is
    stored as its bound, which answers any later lookup with a lower
    cutoff; one with a cutoff at or above the bound scores the trial
    again and replaces the entry. A plain-oracle lookup is never
    answered. A score that comes back an error (a degenerate update, an
    injected fault, an unsettled probe, a factorisation the sparse
    kernel refuses) falls back to the ordinary robust objective,
    counted under [oracle.incremental_fallbacks].

    A move is the {!Delay.Model.wire} it stamps, built where the moves
    are listed: an added wire at width 1 and its Manhattan length
    ([was = None]), a resized one in canonical order (u < v) with its
    length and current width as [was]. *)

val edit_key : Delay.Model.wire -> string
(** The fixed-width encoding of a move in its memo key: a tag byte
    (['a'] for an added wire, [was = None]; ['r'] for a resized one),
    both endpoints as given, and for a resize the bits of the new
    width. *)

val apply : Routing.t -> Delay.Model.wire -> Routing.t
(** [r] with the move applied: a new width-1 wire
    ({!Routing.add_edge}) when [was = None], otherwise the wire set to
    its new width ({!Routing.set_width}).
    @raise Not_found when a resize names a wire [r] lacks. *)

val set_enabled : bool -> unit
(** On by default; when off, {!make_scorer} returns the plain scorer
    and every round runs on the plain objective. *)

val enabled : unit -> bool

type scorer = cutoff:float -> Delay.Model.wire -> float
(** One round's per-trial scorer: [score ~cutoff w] is the max sink
    delay of the round's base with [w] applied when that is at most
    [cutoff]; above it, it may be a bound b with [cutoff] < b ≤ the
    delay, from a SPICE transient scan stopped once the trial could not
    come in under [cutoff] ({!Spice.Engine.threshold_scan_result}). The
    moment models and the plain objective ignore the cutoff. *)

val plain : (Routing.t -> float) -> Routing.t -> scorer
(** [plain objective base] scores a move by [objective] of
    {!apply}[ base], ignoring the cutoff: the scorer of a round that is
    not scored incrementally. *)

val make_scorer :
  model:Delay.Model.t ->
  tech:Circuit.Technology.t ->
  fallback:(Routing.t -> float) ->
  Routing.t ->
  scorer
(** [make_scorer ~model ~tech ~fallback base] prepares one greedy
    round ({!Delay.Model.prepare} of [base]) and returns its scorer.
    No trial routing is built unless it is read: on any per-trial error
    the scorer {!apply}s the move and evaluates [fallback] (the round's
    plain objective) on the result instead; an exception from
    [fallback] propagates to the greedy loop.

    The scorer is {!plain}[ fallback base] when scoring is disabled,
    when the model is unsupported ([Elmore_tree], RLC SPICE: not a
    failure, so no fallback is counted), or when the base fails to
    prepare (one fallback counted). *)
