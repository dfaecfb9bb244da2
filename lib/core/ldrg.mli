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
    sum) via {!run_objective}. *)

type step = {
  edge : int * int;  (** the added edge *)
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

val run_objective :
  ?pool:Pool.t ->
  ?max_edges:int ->
  ?candidates:(Routing.t -> (int * int) list) ->
  ?scorer:(Routing.t -> (Incremental.edit -> float) option) ->
  objective:(Routing.t -> float) ->
  Routing.t ->
  trace
(** Greedy loop under an arbitrary objective. [max_edges] caps the
    number of additions (default: unlimited); an addition is taken only
    when it improves the objective by a relative 1e-9, which guards
    against float noise; [candidates] defaults to
    {!Routing.candidate_edges} — every absent vertex pair.

    [scorer] is called once per iteration with the iteration's base
    routing; when it returns [Some score], every candidate of that
    iteration is evaluated as [score (Add (u, v))] instead of
    [objective] on the trial routing (the incremental rank-1 update
    path of {!Incremental.make_scorer}), and no trial routing is built
    for it; the iteration's winner is built once. The default returns
    [None] — all evaluations go through [objective]. Either way each
    candidate counts one evaluation.

    [pool] (default {!Pool.sequential}) scores the candidate edges of
    each iteration concurrently. The selection is deterministic for any
    worker count: results come back in candidate order and ties keep
    the earliest candidate, so the trace equals the sequential one.
    The [objective] must therefore be safe to call from several domains
    at once — the {!Oracle} objectives are. *)

val run :
  ?pool:Pool.t ->
  ?max_edges:int ->
  ?candidates:(Routing.t -> (int * int) list) ->
  model:Delay.Model.t ->
  tech:Circuit.Technology.t ->
  Routing.t ->
  trace
(** {!run_objective} with the paper's objective: the model's maximum
    source→sink delay. *)

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

    @raise Invalid_argument when [max_cost_ratio < 1]. *)

val routing_after : trace -> int -> Routing.t
(** [routing_after trace k] replays only the first [k] additions onto
    the initial topology — how the per-iteration rows of Tables 2 and 4
    are produced. [k] larger than the step count returns the final
    routing. *)
