type t = {
  driver_resistance : float;
  wire_resistance : float;
  wire_capacitance : float;
  wire_inductance : float;
  sink_capacitance : float;
  layout_side : float;
}

let table1 =
  { driver_resistance = 100.0;
    wire_resistance = 0.03;
    wire_capacitance = 0.352e-15;
    wire_inductance = 492e-18;
    sink_capacitance = 15.3e-15;
    (* 10^2 mm^2 layout area = 10 mm x 10 mm = 10^4 µm per side. *)
    layout_side = 10_000.0 }

let wire_resistance_of t ~length ~width = t.wire_resistance *. length /. width

let wire_capacitance_of t ~length ~width = t.wire_capacitance *. length *. width

let wire_inductance_of t ~length = t.wire_inductance *. length

let region t = (t.layout_side, t.layout_side)

let pp ppf t =
  Format.fprintf ppf
    "@[<v>driver resistance        %g Ohm@,\
     wire resistance          %g Ohm/um@,\
     wire capacitance         %g fF/um@,\
     wire inductance          %g fH/um@,\
     sink loading capacitance %g fF@,\
     layout area              %g mm^2@]"
    t.driver_resistance t.wire_resistance
    (t.wire_capacitance /. 1e-15)
    (t.wire_inductance /. 1e-18)
    (t.sink_capacitance /. 1e-15)
    (t.layout_side *. t.layout_side /. 1e6)
