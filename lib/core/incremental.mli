(** Incremental (single-conductance Sherman–Morrison) candidate
    scoring for the greedy loops.

    A greedy round scores every absent edge against one base routing.
    Instead of rebuilding and re-factoring the moment / MNA systems per
    candidate, this module factors the base once per round and treats
    each candidate wire as one added conductance between two existing
    unknowns ({!Numeric.Backend.with_conductance}): first/second
    moments and the SPICE operating and settled states become updated
    solves. At DC a wire's capacitors are open, so its π-chain is one
    series conductance and its interior nodes lie evenly between its
    end voltages. Only the transient companion matrix — tied to the
    candidate's own horizon-derived timestep and built by
    {!Spice.Mna.Delta.extend} — is still factored fresh.

    Every incremental evaluation is memoised through {!Oracle.Cache}
    under the [Incremental] path tag, so it is reused by later rounds
    and runs of the scorer but never answers a plain-oracle lookup.
    Degenerate updates,
    injected faults, and unsettled probes fall back to the ordinary
    robust objective, counted under [oracle.incremental_fallbacks]. *)

val set_enabled : bool -> unit
(** On by default; when off, {!make_scorer} returns [None] and every
    round runs on the plain objective. *)

val enabled : unit -> bool

val make_scorer :
  model:Delay.Model.t ->
  tech:Circuit.Technology.t ->
  fallback:(Routing.t -> float) ->
  Routing.t ->
  (int * int -> Routing.t -> float) option
(** [make_scorer ~model ~tech ~fallback base] prepares one greedy
    round: factor [base]'s systems once and return a per-candidate
    scorer [score (u, v) trial] giving the max sink delay of [trial] =
    [base] plus edge [(u, v)]. Returns [None] — meaning "use the plain
    objective for this round" — when scoring is disabled, the model is
    unsupported ([Elmore_tree], RLC SPICE), or the base system fails to
    factor. On any per-candidate failure the scorer evaluates
    [fallback trial] instead; pass the same guarded objective the round
    uses for non-incremental evaluations so failure semantics and
    counters match exactly. *)
