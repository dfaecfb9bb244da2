type t =
  | Dc of float
  | Step of { t0 : float; v0 : float; v1 : float }
  | Ramp of { t0 : float; t1 : float; v0 : float; v1 : float }
  | Pulse of {
      v0 : float;
      v1 : float;
      delay : float;
      rise : float;
      fall : float;
      width : float;
      period : float;
    }
  | Pwl of (float * float) list

let lerp v0 v1 f = v0 +. (f *. (v1 -. v0))

let pwl_value corners t =
  let rec walk prev = function
    | [] ->
        let _, v = prev in
        v
    | ((t1, v1) as c) :: rest ->
        let t0, v0 = prev in
        if t <= t1 then
          if t1 = t0 then v1 else lerp v0 v1 ((t -. t0) /. (t1 -. t0))
        else walk c rest
  in
  match corners with
  | [] -> 0.0
  | (t0, v0) :: rest -> if t <= t0 then v0 else walk (t0, v0) rest

let value w t =
  match w with
  | Dc v -> v
  | Step { t0; v0; v1 } -> if t <= t0 then v0 else v1
  | Ramp { t0; t1; v0; v1 } ->
      if t <= t0 then v0
      else if t >= t1 then v1
      else lerp v0 v1 ((t -. t0) /. (t1 -. t0))
  | Pulse { v0; v1; delay; rise; fall; width; period } ->
      if t < delay then v0
      else begin
        let tau = mod_float (t -. delay) period in
        if tau < rise then
          if rise = 0.0 then v1 else lerp v0 v1 (tau /. rise)
        else if tau < rise +. width then v1
        else if tau < rise +. width +. fall then
          if fall = 0.0 then v0 else lerp v1 v0 ((tau -. rise -. width) /. fall)
        else v0
      end
  | Pwl corners -> pwl_value corners t

let settled = function
  | Dc v -> v
  | Step { v1; _ } | Ramp { v1; _ } | Pulse { v1; _ } -> v1
  | Pwl corners -> (
      match List.rev corners with [] -> 0.0 | (_, v) :: _ -> v)

let parameters = function
  | Dc v -> [ v ]
  | Step { t0; v0; v1 } -> [ t0; v0; v1 ]
  | Ramp { t0; t1; v0; v1 } -> [ t0; t1; v0; v1 ]
  | Pulse { v0; v1; delay; rise; fall; width; period } ->
      [ v0; v1; delay; rise; fall; width; period ]
  | Pwl corners -> List.concat_map (fun (t, v) -> [ t; v ]) corners

let validate w =
  if not (List.for_all Float.is_finite (parameters w)) then
    Error "non-finite waveform parameter"
  else
    match w with
    | Dc _ | Step _ -> Ok ()
    | Ramp { t0; t1; _ } ->
        if t1 >= t0 then Ok () else Error "ramp: t1 < t0"
    | Pulse { rise; fall; width; period; _ } ->
        if rise < 0.0 || fall < 0.0 || width < 0.0 then
          Error "pulse: negative timing parameter"
        else if period <= 0.0 then Error "pulse: period must be positive"
        else if rise +. fall +. width > period then
          Error "pulse: rise+width+fall exceeds period"
        else Ok ()
    | Pwl corners ->
        let rec increasing = function
          | (t0, _) :: ((t1, _) :: _ as rest) ->
              if t1 > t0 then increasing rest
              else Error "pwl: times not increasing"
          | _ -> Ok ()
        in
        if corners = [] then Error "pwl: empty corner list"
        else increasing corners
