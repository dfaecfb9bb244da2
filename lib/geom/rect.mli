(** Axis-aligned rectangles, used for layout regions and bounding boxes. *)

type t = { x0 : float; y0 : float; x1 : float; y1 : float }
(** Invariant: [x0 <= x1] and [y0 <= y1]. *)

val make : float -> float -> float -> float -> t
(** [make x0 y0 x1 y1] normalises the corner order.  *)

val square : float -> t
(** [square side] is the region [\[0,side\] × \[0,side\]]. *)

val width : t -> float
val height : t -> float

val contains : t -> Point.t -> bool
(** Closed containment test. *)

val bounding_box : Point.t array -> t
(** Smallest rectangle containing all points.

    @raise Invalid_argument on an empty array. *)
