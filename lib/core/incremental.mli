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
    the plan compiled from the round's recorded G factorisation when
    the wire appends at most one unknown (every fast-profile trial), by
    the full kernel otherwise.

    Every incremental evaluation is memoised through
    {!Oracle.Cache.memo_edit}. A score depends only on the round's base,
    the model, the technology and the edit, so its key is exactly that:
    the base's digest, taken once per round, plus {!edit_key}. A key
    costs the same to build whatever the routing's size. Later rounds
    and runs that score the same edit of the same base (the budget
    ladder, a replayed search) hit. A trial reached from another base is
    scored afresh. A SPICE trial whose scan was cut is stored as its
    bound, which answers any later lookup with a lower cutoff; one with
    a cutoff at or above the bound scores the trial again and replaces
    the entry. A plain-oracle lookup is never answered. A score that
    comes back an error (a degenerate update, an injected fault, an
    unsettled probe, a factorisation the sparse kernel refuses) falls
    back to the ordinary robust objective, counted under
    [oracle.incremental_fallbacks]. *)

type edit =
  | Add of int * int
      (** a new width-1 wire between two vertices not yet joined
          ({!Routing.add_edge}) *)
  | Resize of (int * int) * float
      (** an existing wire set to a new width ({!Routing.set_width}) *)
(** A one-wire change to a round's base routing. *)

val edit_key : edit -> string
(** The fixed-width encoding of an edit in its memo key: a tag byte,
    both endpoints as given, and for a [Resize] the bits of the new
    width. *)

val apply : Routing.t -> edit -> Routing.t
(** [r] with the edit applied ({!Routing.add_edge}, {!Routing.set_width}). *)

val wire : Routing.t -> edit -> Delay.Model.wire
(** The wire an edit of [r] stamps: an added wire at width 1 and its
    Manhattan length, a resized one in canonical order (u < v) with its
    current width as [was].
    @raise Not_found when a [Resize] names a wire [r] lacks. *)

val set_enabled : bool -> unit
(** On by default; when off, {!make_scorer} returns [None] and every
    round runs on the plain objective. *)

val enabled : unit -> bool

type scorer =
  | Exact of (edit -> float)
      (** [score edit] is the trial's max sink delay (the moment
          models) *)
  | Cut of (cutoff:float -> edit -> float)
      (** [score ~cutoff edit] is the trial's max sink delay when that
          is at most [cutoff]; otherwise it may be a bound b with
          [cutoff] < b ≤ the delay, from a transient scan stopped once
          the trial could not come in under [cutoff]
          ({!Spice.Engine.threshold_scan_result}) (the SPICE models) *)
(** One round's per-trial scorer. Only the SPICE scorer takes a cutoff:
    a moment score costs too little for a cutoff to save anything. *)

val make_scorer :
  model:Delay.Model.t ->
  tech:Circuit.Technology.t ->
  fallback:(Routing.t -> float) ->
  Routing.t ->
  scorer option
(** [make_scorer ~model ~tech ~fallback base] prepares one greedy
    round ({!Delay.Model.prepare} of [base]) and returns a per-trial
    scorer giving the max sink delay of [base] with an edit applied,
    or for {!Cut}, a bound above the cutoff. No trial routing is built
    unless it is read: on any per-trial error the scorer {!apply}s the
    edit and evaluates [fallback] (the round's plain objective) on the
    result instead; an exception from [fallback] propagates to the
    greedy loop. Returns [None] — meaning "use the plain objective for
    this round" — when scoring is disabled, the model is unsupported
    ([Elmore_tree], RLC SPICE: not a failure, so no fallback is
    counted), or the base fails to prepare (one fallback counted).

    @raise Not_found when a [Resize] names a wire [base] lacks. *)
