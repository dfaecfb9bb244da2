type t = { x : float; y : float }

let make x y = { x; y }

let origin = { x = 0.0; y = 0.0 }

let manhattan p q = abs_float (p.x -. q.x) +. abs_float (p.y -. q.y)

let equal p q = p.x = q.x && p.y = q.y

let close ?(eps = 1e-9) p q =
  abs_float (p.x -. q.x) <= eps && abs_float (p.y -. q.y) <= eps

let compare p q =
  let c = Float.compare p.x q.x in
  if c <> 0 then c else Float.compare p.y q.y

let pp ppf p = Format.fprintf ppf "(%g, %g)" p.x p.y

let to_string p = Format.asprintf "%a" pp p
