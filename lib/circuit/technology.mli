(** Interconnect technology parameters.

    [table1] reproduces the paper's Table 1 exactly: "Parameter values
    for the CMOS interconnect technology used in our SPICE model",
    representative of a 0.8 µm CMOS process. All lengths in this
    repository are micrometres, so the per-unit-length values are per
    µm and SI elsewhere (Ω, F, H, s, V). *)

type t = {
  driver_resistance : float;  (** Ω — output resistance driving the net *)
  wire_resistance : float;  (** Ω/µm *)
  wire_capacitance : float;  (** F/µm *)
  wire_inductance : float;  (** H/µm *)
  sink_capacitance : float;  (** F — loading capacitance at every pin *)
  layout_side : float;  (** µm — side of the square layout region *)
}

val table1 : t
(** 100 Ω driver, 0.03 Ω/µm, 0.352 fF/µm, 492 fH/µm, 15.3 fF sink
    loads, 10 mm × 10 mm layout area. *)

val wire_resistance_of : t -> length:float -> width:float -> float
(** Total resistance of a wire of [length] µm and relative [width]
    (wider wires have proportionally lower resistance). *)

val wire_capacitance_of : t -> length:float -> width:float -> float
(** Total capacitance: area term scales with width. *)

val wire_inductance_of : t -> length:float -> float

val region : t -> float * float
(** The layout region as (side, side) in µm. *)

val pp : Format.formatter -> t -> unit
(** Prints the Table 1 rows. *)
