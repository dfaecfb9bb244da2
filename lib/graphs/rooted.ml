type t = {
  root : int;
  parent : int array;
  children : int list array;
  order : int array;
  edge_weight : float array;
  depth : float array;
}

let of_tree g ~root =
  if not (Wgraph.is_spanning_tree g) then
    invalid_arg "Rooted.of_tree: not a spanning tree";
  let n = Wgraph.num_vertices g in
  let adj = Array.make n [] in
  List.iter
    (fun (e : Wgraph.edge) ->
      adj.(e.u) <- (e.v, e.w) :: adj.(e.u);
      adj.(e.v) <- (e.u, e.w) :: adj.(e.v))
    (Wgraph.edges g);
  let parent = Array.make n (-1) in
  let children = Array.make n [] in
  let edge_weight = Array.make n 0.0 in
  let depth = Array.make n 0.0 in
  let order = Array.make n root in
  let seen = Array.make n false in
  let idx = ref 0 in
  (* Explicit stack: nets can be long chains, avoid deep recursion. *)
  let stack = Stack.create () in
  Stack.push root stack;
  seen.(root) <- true;
  while not (Stack.is_empty stack) do
    let u = Stack.pop stack in
    order.(!idx) <- u;
    incr idx;
    List.iter
      (fun (v, w) ->
        if not seen.(v) then begin
          seen.(v) <- true;
          parent.(v) <- u;
          children.(u) <- v :: children.(u);
          edge_weight.(v) <- w;
          depth.(v) <- depth.(u) +. w;
          Stack.push v stack
        end)
      adj.(u)
  done;
  { root; parent; children; order; edge_weight; depth }

let postorder t =
  let n = Array.length t.order in
  Array.init n (fun i -> t.order.(n - 1 - i))

let fold_subtree_sums t leaf_value =
  let n = Array.length t.order in
  let s = Array.init n leaf_value in
  Array.iter
    (fun v -> if v <> t.root then s.(t.parent.(v)) <- s.(t.parent.(v)) +. s.(v))
    (postorder t);
  s
