type t = { x0 : float; y0 : float; x1 : float; y1 : float }

let make xa ya xb yb =
  { x0 = Float.min xa xb;
    y0 = Float.min ya yb;
    x1 = Float.max xa xb;
    y1 = Float.max ya yb }

let square side = make 0.0 0.0 side side

let width r = r.x1 -. r.x0
let height r = r.y1 -. r.y0
let area r = width r *. height r

let contains r (p : Point.t) =
  p.x >= r.x0 && p.x <= r.x1 && p.y >= r.y0 && p.y <= r.y1

let bounding_box points =
  if Array.length points = 0 then invalid_arg "Rect.bounding_box: empty";
  let p0 = points.(0) in
  let r = ref (make p0.Point.x p0.Point.y p0.Point.x p0.Point.y) in
  Array.iter
    (fun (p : Point.t) ->
      r :=
        { x0 = Float.min !r.x0 p.x;
          y0 = Float.min !r.y0 p.y;
          x1 = Float.max !r.x1 p.x;
          y1 = Float.max !r.y1 p.y })
    points;
  !r

let half_perimeter r = width r +. height r
