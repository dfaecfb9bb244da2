(** Points in the Manhattan (rectilinear) plane.

    Coordinates are in micrometres, matching the units of the paper's
    interconnect technology (Table 1: Ω/µm, fF/µm, a 10 mm × 10 mm
    layout region). *)

type t = { x : float; y : float }

val make : float -> float -> t

val origin : t

val manhattan : t -> t -> float
(** [manhattan p q] is the L1 (rectilinear wiring) distance |px−qx|+|py−qy|,
    i.e. the wirelength of a shortest rectilinear connection of [p] and
    [q]. This is the edge cost d_ij of the paper. *)

val equal : t -> t -> bool
(** Exact coordinate equality. *)

val close : ?eps:float -> t -> t -> bool
(** [close p q] holds when both coordinates agree within [eps]
    (default 1e-9 µm). *)

val compare : t -> t -> int
(** Lexicographic order on (x, y); a total order usable in sets/maps. *)

val pp : Format.formatter -> t -> unit
(** Prints as [(x, y)] in µm. *)

val to_string : t -> string
