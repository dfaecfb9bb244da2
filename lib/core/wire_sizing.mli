(** The Wire-Sized Optimal Routing Graph problem (Section 5.2).

    Two parallel width-w wires between the same pins behave as one
    width-2w wire, so the non-tree idea generalises to a width function
    w : E → ℝ. Wider wires have lower resistance and higher
    capacitance; widening near the source usually pays. This module
    provides the greedy discrete sizing pass. *)

val wire_area : Routing.t -> float
(** Σ length × width — the silicon area cost that replaces raw
    wirelength once widths vary. *)

val resizes : widths:float list -> Routing.t -> Delay.Model.wire list
(** {!size_greedy}'s moves: each wire below the widest width bumped to
    its next one, in {!Routing.widths} order, with its length and
    current width as [was]. *)

val size_greedy :
  ?widths:float list ->
  ?max_changes:int ->
  model:Delay.Model.t ->
  tech:Circuit.Technology.t ->
  Routing.t ->
  Routing.t * ((int * int) * float) list
(** [size_greedy ~model ~tech r] repeatedly bumps the single edge whose
    widening most reduces the model delay to the next allowed width
    (default widths 1, 2, 3), while any bump improves. Returns the
    sized routing and the applied (edge, new-width) changes in order.

    It is LDRG's loop, {!Ldrg.search_delay}, on {!resizes}: width
    trials are scored incrementally as resized wires, on the plain
    oracle where the scorer gives up; a failed trial is dropped, a
    failed baseline raises, and ties keep the earliest edge.

    @raise Invalid_argument when [widths] is not strictly increasing
    or does not start at 1. *)
