(** The paper's three fixed-rule heuristics (Section 3).

    Each starts from a spanning tree (the MST in the experiments) and
    connects the source n0 to one chosen pin:

    - H1: the pin with the longest simulated (SPICE) delay; the step
      may be iterated, each time keeping the new wire only when the
      simulated delay actually improves.
    - H2: the pin with the longest Elmore delay; not iterable (Elmore
      is tree-only) and applied unconditionally.
    - H3: the pin maximising (pathlength × Elmore) / length-of-new-edge,
      also unconditional and single-shot.

    H2 and H3 need no simulation at all; H1 needs one simulation per
    iteration to find the worst sink plus one to accept/reject — still
    far cheaper than LDRG's quadratic candidate sweep. *)

val h1 :
  model:Delay.Model.t ->
  tech:Circuit.Technology.t ->
  Routing.t ->
  Ldrg.trace
(** Iterated worst-sink connection. [model] is SPICE in the paper; any
    graph-capable oracle works (used by the oracle ablation). Stops
    when connecting the worst sink no longer improves or when the worst
    sink is already adjacent to the source. *)

val h2 : tech:Circuit.Technology.t -> Routing.t -> Routing.t * (int * int) option
(** Adds source→(worst Elmore sink). Returns the edge added, or [None]
    when the worst sink is already adjacent to the source.

    @raise Invalid_argument on a non-tree input. *)

val h3 : tech:Circuit.Technology.t -> Routing.t -> Routing.t * (int * int) option
(** Adds source→argmax of (tree pathlength × Elmore delay) / (Manhattan
    distance to source), skipping sinks already adjacent to the source.

    @raise Invalid_argument on a non-tree input. *)
