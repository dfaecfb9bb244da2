(** Linear circuit elements.

    Nodes are small integers; node 0 is ground. The interconnect
    circuits of the paper need exactly these five element kinds:
    resistors and capacitors for the wire model and loads, inductors
    for the 492 fH/µm wire inductance, and independent sources for the
    driver. *)

type node = int

type t =
  | Resistor of { name : string; pos : node; neg : node; ohms : float }
  | Capacitor of { name : string; pos : node; neg : node; farads : float }
  | Inductor of { name : string; pos : node; neg : node; henries : float }
  | Vsource of { name : string; pos : node; neg : node; wave : Waveform.t }
  | Isource of { name : string; pos : node; neg : node; wave : Waveform.t }

val name : t -> string
val nodes : t -> node * node

val validate : t -> (unit, string) result
(** Element-level sanity: finite, positive R/C/L values, valid waveform,
    distinct terminals for R/L/V (a shorted source or zero-ohm loop is
    a modelling error; a capacitor across identical nodes is also
    rejected). *)
