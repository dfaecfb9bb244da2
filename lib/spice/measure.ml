let first_crossing ~times ~values ~level =
  let n = Array.length values in
  if n = 0 || Array.length times <> n then
    invalid_arg "Measure.first_crossing: bad arrays";
  (* A crossing is an upward transition through [level]: a sample below
     it followed by one at or above it. The first sample can only count
     when it sits exactly at [level]; a waveform that *starts above* the
     threshold never crossed it from below (an initially-high or falling
     waveform must first dip under [level] before a later rise counts),
     so it must not report a spurious t = times.(0) delay. *)
  if values.(0) = level then Some times.(0)
  else begin
    let rec scan i =
      if i >= n then None
      else if values.(i - 1) < level && values.(i) >= level then
        if values.(i) = level then Some times.(i)
        else begin
          (* Interpolate within [i-1, i]; v0 < level <= v1 here, so the
             slope is nonzero. *)
          let v0 = values.(i - 1) and v1 = values.(i) in
          let t0 = times.(i - 1) and t1 = times.(i) in
          Some (t0 +. ((level -. v0) /. (v1 -. v0) *. (t1 -. t0)))
        end
      else scan (i + 1)
    in
    scan 1
  end

let final_value ~values =
  let n = Array.length values in
  if n = 0 then invalid_arg "Measure.final_value: empty waveform";
  values.(n - 1)

let rise_time ~times ~values ~vfinal =
  match
    ( first_crossing ~times ~values ~level:(0.1 *. vfinal),
      first_crossing ~times ~values ~level:(0.9 *. vfinal) )
  with
  | Some t10, Some t90 -> Some (t90 -. t10)
  | _ -> None

let overshoot ~values ~vfinal =
  if Array.length values = 0 then
    invalid_arg "Measure.overshoot: empty waveform";
  let peak = Array.fold_left Float.max neg_infinity values in
  Float.max 0.0 (peak -. vfinal)
