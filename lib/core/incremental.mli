(** Incremental (single-conductance Sherman–Morrison) edit scoring
    for the greedy loops.

    A greedy round scores many one-wire edits of one base routing:
    LDRG adds wires, wire sizing widens them. Instead of rebuilding and
    re-factoring the moment / MNA systems per trial, this module
    factors the base once per round and treats each edit as one
    conductance change between two existing unknowns
    ({!Numeric.Sparse.with_conductance}): first/second moments and the
    SPICE operating and settled states become updated solves. At DC a
    wire's capacitors are open, so its π-chain is one series
    conductance and its interior nodes lie evenly between its end
    voltages. The transient restamps the wire's π-chain as
    {!Spice.Transient.stamps}: on fresh interior unknowns for an added
    wire, on the chain's existing unknowns for a resized one. Only its
    companion matrix, tied to the trial's own horizon-derived timestep,
    is assembled (from the base matrices and those stamps, in one
    pass) and factored fresh.

    Every incremental evaluation is memoised through
    {!Oracle.Cache.memo_edit}. A score depends only on the round's base,
    the model, the technology and the edit, so its key is exactly that:
    the base's digest, taken once per round, plus {!edit_key}. A key
    costs the same to build whatever the routing's size. Later rounds
    and runs that score the same edit of the same base (the budget
    ladder, a replayed search) hit. A trial reached from another base is
    scored afresh. A plain-oracle lookup is never answered. Degenerate
    updates, factorisations the sparse kernel refuses, injected faults
    and unsettled probes fall back to the ordinary robust objective,
    counted under [oracle.incremental_fallbacks]. *)

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

val set_enabled : bool -> unit
(** On by default; when off, {!make_scorer} returns [None] and every
    round runs on the plain objective. *)

val enabled : unit -> bool

val make_scorer :
  model:Delay.Model.t ->
  tech:Circuit.Technology.t ->
  fallback:(Routing.t -> float) ->
  Routing.t ->
  (edit -> Routing.t -> float) option
(** [make_scorer ~model ~tech ~fallback base] prepares one greedy
    round: factor [base]'s systems once and return a per-trial scorer
    [score edit trial] giving the max sink delay of [trial], which must
    be [base] with [edit] applied. Returns [None] — meaning "use the
    plain objective for this round" — when scoring is disabled, the
    model is unsupported ([Elmore_tree], RLC SPICE), or the base system
    fails to factor. On any per-trial failure the scorer evaluates
    [fallback trial] instead; pass the same guarded objective the round
    uses for non-incremental evaluations so failure semantics and
    counters match exactly.

    @raise Not_found when a [Resize] names a wire [base] lacks. *)
