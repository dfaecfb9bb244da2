(** The Hanan grid.

    Hanan's theorem: some rectilinear Steiner minimal tree uses only
    Steiner points at intersections of horizontal and vertical lines
    through the pins. The Iterated 1-Steiner algorithm therefore draws
    its candidate points from this grid. *)

val points : Geom.Point.t array -> Geom.Point.t list
(** [points pins] is every Hanan grid point that does not coincide with
    a pin, in lexicographic order. At most n² − n points. *)
