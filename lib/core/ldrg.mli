(** The Low Delay Routing Graph (LDRG) algorithm — Figure 4.

    Starting from any spanning topology (MST in the paper's main
    experiments, a Steiner tree in SLDRG, an ERT in Table 7), greedily
    add the candidate edge that most reduces the objective, while any
    addition improves it:

    1.  G = initial routing
    2.  While ∃ e ∈ N×N with t(G + e) < t(G)
    3.    G = G + (best such e)
    4.  Output G

    The objective t is pluggable: the paper's t(G) (max sink delay
    under SPICE) via {!run}, or anything else (e.g. the CSORG weighted
    sum) via {!run_objective}. Wire sizing runs the same loop,
    {!search}, with resizes as its moves. *)

type step = {
  edge : int * int;  (** the added (or resized) wire *)
  objective_before : float;
  objective_after : float;
  cost_before : float;
  cost_after : float;  (** wirelength after the addition *)
}

type trace = {
  initial : Routing.t;
  final : Routing.t;
  steps : step list;  (** in application order; empty when no edge helped *)
  evaluations : int;  (** number of objective evaluations performed *)
}

val search :
  ?pool:Pool.t ->
  ?max_moves:int ->
  ?scorer:(Routing.t -> Incremental.scorer) ->
  moves:(Routing.t -> Delay.Model.wire list) ->
  objective:(Routing.t -> float) ->
  Routing.t ->
  trace * Delay.Model.wire list
(** The greedy loop: while some of a round's [moves] lowers the
    objective by a relative 1e-9 (a guard against float noise), take
    the best, at most [max_moves] times (default: unlimited). A move is
    the wire it stamps ({!Incremental.apply}). Returns the trace (a
    step's [edge] is its move's endpoints) and the taken moves.

    [scorer] is called once per round with its base routing and scores
    the round's candidates: {!Incremental.make_scorer}, or by default
    {!Incremental.plain}[ objective]. Each candidate and the baseline
    count one evaluation.

    Each candidate's cutoff is the round's running bound τ′, the
    smaller of the improvement threshold τ·(1 − 1e-9) (τ the round's
    objective) and the best score in so far, read once as the candidate
    starts. A candidate above it can neither win nor tie, so the scorer
    may stop early and return a bound over it. The winner is never cut,
    and the trace, the taken moves and the evaluation count are those of
    the same search with every cutoff infinite, for any worker count;
    which losers are cut, and so the transient steps taken, depends on
    the schedule.

    The failure rule: the baseline is evaluated directly, so its
    {!Nontree_error.Error} propagates. Every candidate goes through
    {!Oracle.candidate}: a failed one is counted once, never selected,
    and leaves the trace of a search without it.

    [pool] (default {!Pool.sequential}) scores a round's candidates
    concurrently; ties keep the earliest candidate, so the trace is the
    sequential one for any worker count. [objective] and [scorer] must
    be safe to call from several domains at once. Each round records
    an [ldrg.iteration] span and an [ldrg.candidates] observation. *)

val search_delay :
  ?pool:Pool.t ->
  ?max_moves:int ->
  moves:(Routing.t -> Delay.Model.wire list) ->
  model:Delay.Model.t ->
  tech:Circuit.Technology.t ->
  Routing.t ->
  trace * Delay.Model.wire list
(** {!search} on the model's maximum sink delay
    ({!Oracle.Cache.max_delay}), scored by {!Incremental.make_scorer}
    with that objective as its fallback. *)

val adds : (Routing.t -> (int * int) list) -> Routing.t -> Delay.Model.wire list
(** LDRG's moves: each of [candidates r] as a new width-1 wire of its
    Manhattan length. *)

val run_objective :
  ?pool:Pool.t ->
  ?max_edges:int ->
  ?candidates:(Routing.t -> (int * int) list) ->
  objective:(Routing.t -> float) ->
  Routing.t ->
  trace
(** {!search} adding the [candidates] wires (default:
    {!Routing.candidate_edges}, every absent vertex pair), at most
    [max_edges] of them, under any objective. *)

val run :
  ?pool:Pool.t ->
  ?max_edges:int ->
  ?candidates:(Routing.t -> (int * int) list) ->
  model:Delay.Model.t ->
  tech:Circuit.Technology.t ->
  Routing.t ->
  trace
(** LDRG with the paper's objective: {!search_delay} adding wires, the
    [candidates] of {!run_objective}. *)

val run_budgeted :
  ?pool:Pool.t ->
  ?max_edges:int ->
  max_cost_ratio:float ->
  model:Delay.Model.t ->
  tech:Circuit.Technology.t ->
  Routing.t ->
  trace
(** Wirelength-budgeted variant: like {!run}, but a candidate wire is
    only considered while the resulting total wirelength stays within
    [max_cost_ratio] × the initial routing's wirelength. The paper's
    LDRG spends wire freely (its cost columns are uncontrolled
    outputs); this is the production knob that caps the spend.

    @raise Invalid_argument unless [max_cost_ratio >= 1] (so also
    when it is nan). *)

val routing_after : trace -> int -> Routing.t
(** [routing_after trace k] replays only the first [k] additions onto
    the initial topology — how the per-iteration rows of Tables 2 and 4
    are produced. [k] larger than the step count returns the final
    routing. *)
