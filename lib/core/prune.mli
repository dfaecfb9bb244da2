(** Delay-preserving wirelength reclamation for non-tree routings.

    Once LDRG has added shortcut wires, some of the original tree edges
    carry little current: removing them can reclaim wirelength with no
    (or bounded) delay loss. This post-pass greedily removes the
    longest edge whose deletion keeps the routing connected and keeps
    the objective within 0.1% of its current value, until no
    edge qualifies. The result may be a different tree, or stay a
    graph — whatever the delay landscape supports.

    This addresses the paper's main cost: LDRG's wirelength penalties
    (its Tables' Cost columns) are uncontrolled; prune gives some of
    that wire back for free. *)

type removal = {
  edge : int * int;
  objective_before : float;
  objective_after : float;
  cost_saved : float;  (** wirelength reclaimed by this removal *)
}

type trace = {
  initial : Routing.t;
  final : Routing.t;
  removals : removal list;
  evaluations : int;
}

val run :
  model:Delay.Model.t ->
  tech:Circuit.Technology.t ->
  Routing.t ->
  trace
(** [run ~model ~tech r] removes edges greedily (longest candidate
    first) while the model objective stays within a relative 1e-3 of
    the objective before the pass.
    Edges whose removal would disconnect the routing are never
    candidates. The model must handle non-tree inputs. *)
