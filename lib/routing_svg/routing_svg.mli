(** SVG rendering of routing topologies, used to regenerate the paper's
    Figures 1, 2, 3 and 5 as image files. *)

val render :
  ?title:string ->
  ?highlight:(int * int) list ->
  Routing.t ->
  string
(** [render r] is a 480×480-pixel SVG document showing the routing: edges as
    L-shaped (Manhattan) wires, the source as a filled circle, sinks as
    open circles, Steiner points as small squares (the paper's Figure 5
    convention), with edges in [highlight] (the added non-tree wires)
    drawn thicker and dashed. *)

val render_to_file :
  ?title:string ->
  ?highlight:(int * int) list ->
  string ->
  Routing.t ->
  unit
(** Writes {!render} output to a path. *)
