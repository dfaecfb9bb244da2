type node = int

type t =
  | Resistor of { name : string; pos : node; neg : node; ohms : float }
  | Capacitor of { name : string; pos : node; neg : node; farads : float }
  | Inductor of { name : string; pos : node; neg : node; henries : float }
  | Vsource of { name : string; pos : node; neg : node; wave : Waveform.t }
  | Isource of { name : string; pos : node; neg : node; wave : Waveform.t }

let name = function
  | Resistor { name; _ }
  | Capacitor { name; _ }
  | Inductor { name; _ }
  | Vsource { name; _ }
  | Isource { name; _ } -> name

let nodes = function
  | Resistor { pos; neg; _ }
  | Capacitor { pos; neg; _ }
  | Inductor { pos; neg; _ }
  | Vsource { pos; neg; _ }
  | Isource { pos; neg; _ } -> (pos, neg)

let validate = function
  | Resistor { ohms; pos; neg; _ } ->
      if not (Float.is_finite ohms) then Error "resistor: non-finite resistance"
      else if ohms <= 0.0 then Error "resistor: non-positive resistance"
      else if pos = neg then Error "resistor: shorted terminals"
      else Ok ()
  | Capacitor { farads; pos; neg; _ } ->
      if not (Float.is_finite farads) then
        Error "capacitor: non-finite capacitance"
      else if farads <= 0.0 then Error "capacitor: non-positive capacitance"
      else if pos = neg then Error "capacitor: shorted terminals"
      else Ok ()
  | Inductor { henries; pos; neg; _ } ->
      if not (Float.is_finite henries) then
        Error "inductor: non-finite inductance"
      else if henries <= 0.0 then Error "inductor: non-positive inductance"
      else if pos = neg then Error "inductor: shorted terminals"
      else Ok ()
  | Vsource { wave; pos; neg; _ } ->
      if pos = neg then Error "vsource: shorted terminals"
      else Waveform.validate wave
  | Isource { wave; _ } -> Waveform.validate wave
