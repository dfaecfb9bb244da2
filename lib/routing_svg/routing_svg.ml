let buffer_add_edge buf scale ox oy (p : Geom.Point.t) (q : Geom.Point.t)
    ~stroke ~width ~dash =
  (* Draw the Manhattan L-shape: horizontal first, then vertical. *)
  let x0 = ox +. (p.Geom.Point.x *. scale)
  and y0 = oy -. (p.Geom.Point.y *. scale)
  and x1 = ox +. (q.Geom.Point.x *. scale)
  and y1 = oy -. (q.Geom.Point.y *. scale) in
  let dash_attr = if dash then " stroke-dasharray=\"6,3\"" else "" in
  Buffer.add_string buf
    (Printf.sprintf
       "<polyline points=\"%.1f,%.1f %.1f,%.1f %.1f,%.1f\" fill=\"none\" \
        stroke=\"%s\" stroke-width=\"%.1f\"%s/>\n"
       x0 y0 x1 y0 x1 y1 stroke width dash_attr)

let width_px = 480

let render ?(title = "") ?(highlight = []) r =
  let pts = Routing.points r in
  let box = Geom.Rect.bounding_box pts in
  let margin = 24.0 in
  let extent =
    Float.max (Geom.Rect.width box) (Geom.Rect.height box) |> Float.max 1.0
  in
  let scale = (float_of_int width_px -. (2.0 *. margin)) /. extent in
  let ox = margin -. (box.Geom.Rect.x0 *. scale) in
  let oy = float_of_int width_px -. margin +. (box.Geom.Rect.y0 *. scale) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
        viewBox=\"0 0 %d %d\">\n<rect width=\"100%%\" height=\"100%%\" \
        fill=\"white\"/>\n"
       width_px width_px width_px width_px);
  if title <> "" then
    Buffer.add_string buf
      (Printf.sprintf
         "<text x=\"%.1f\" y=\"16\" font-family=\"sans-serif\" \
          font-size=\"12\">%s</text>\n"
         margin title);
  let is_highlighted u v =
    List.exists (fun (a, b) -> (a = u && b = v) || (a = v && b = u)) highlight
  in
  List.iter
    (fun (e : Graphs.Wgraph.edge) ->
      if not (is_highlighted e.u e.v) then
        buffer_add_edge buf scale ox oy (Routing.point r e.u)
          (Routing.point r e.v) ~stroke:"#333333" ~width:1.5 ~dash:false)
    (Graphs.Wgraph.edges (Routing.graph r));
  List.iter
    (fun (e : Graphs.Wgraph.edge) ->
      if is_highlighted e.u e.v then
        buffer_add_edge buf scale ox oy (Routing.point r e.u)
          (Routing.point r e.v) ~stroke:"#cc2222" ~width:2.5 ~dash:true)
    (Graphs.Wgraph.edges (Routing.graph r));
  let nt = Routing.num_terminals r in
  Array.iteri
    (fun i (p : Geom.Point.t) ->
      let x = ox +. (p.Geom.Point.x *. scale)
      and y = oy -. (p.Geom.Point.y *. scale) in
      if i = 0 then
        Buffer.add_string buf
          (Printf.sprintf
             "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"6\" fill=\"#2255cc\"/>\n" x y)
      else if i < nt then
        Buffer.add_string buf
          (Printf.sprintf
             "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"4\" fill=\"white\" \
              stroke=\"black\" stroke-width=\"1.5\"/>\n"
             x y)
      else
        Buffer.add_string buf
          (Printf.sprintf
             "<rect x=\"%.1f\" y=\"%.1f\" width=\"6\" height=\"6\" \
              fill=\"#444444\"/>\n"
             (x -. 3.0) (y -. 3.0)))
    pts;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let render_to_file ?title ?highlight path r =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (render ?title ?highlight r))
