let prim_complete ~n ~weight =
  if n < 1 then invalid_arg "Mst.prim_complete: n < 1";
  let in_tree = Array.make n false in
  let best = Array.make n infinity in
  let parent = Array.make n (-1) in
  in_tree.(0) <- true;
  for v = 1 to n - 1 do
    best.(v) <- weight 0 v;
    parent.(v) <- 0
  done;
  let g = ref (Wgraph.create n) in
  for _ = 1 to n - 1 do
    let u = ref (-1) in
    for v = 0 to n - 1 do
      if (not in_tree.(v)) && (!u = -1 || best.(v) < best.(!u)) then u := v
    done;
    let u = !u in
    in_tree.(u) <- true;
    g := Wgraph.add_edge !g parent.(u) u best.(u);
    for v = 0 to n - 1 do
      if not in_tree.(v) then begin
        let w = weight u v in
        if w < best.(v) then begin
          best.(v) <- w;
          parent.(v) <- u
        end
      end
    done
  done;
  !g
