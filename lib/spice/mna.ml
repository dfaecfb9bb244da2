open Circuit
module Triplets = Numeric.Sparse.Triplets
module Csc = Numeric.Sparse.Csc

type source = { row : int; sign : float; wave : Waveform.t }

type t = {
  size : int;
  num_node_unknowns : int;
  sources : source array;
  unknown_of_node : int array;
  g_csc : Csc.t;
  c_csc : Csc.t;
  sym : Numeric.Sparse.Symbolic.t;
}

module Builder = struct
  type mna = t

  type t = {
    num_node_unknowns : int;
    gt : Triplets.t;
    ct : Triplets.t;
    mutable next_branch : int;
    mutable sources : source list;  (* the terms of b(t), newest first *)
  }

  (* Sized for a lowered routing, which stamps about 8 entries per node
     at most into G or C; the buffers grow past that. *)
  let create ~num_nodes =
    if num_nodes < 1 then invalid_arg "Mna.Builder.create: no ground node";
    let capacity = 8 * num_nodes in
    {
      num_node_unknowns = num_nodes - 1;
      gt = Triplets.create ~capacity ();
      ct = Triplets.create ~capacity ();
      next_branch = num_nodes - 1;
      sources = [];
    }

  (* Node k is unknown k - 1, so ground is -1. *)
  let unknown b node =
    if node < 0 || node > b.num_node_unknowns then
      invalid_arg "Mna.Builder: unknown node";
    node - 1

  let conductance b m pos neg value =
    let p = unknown b pos and n = unknown b neg in
    if p >= 0 then Triplets.add m p p value;
    if n >= 0 then Triplets.add m n n value;
    if p >= 0 && n >= 0 then begin
      Triplets.add m p n (-.value);
      Triplets.add m n p (-.value)
    end

  (* The next branch unknown, from pos to neg, with its incidence. *)
  let branch b pos neg =
    let p = unknown b pos and n = unknown b neg in
    let row = b.next_branch in
    b.next_branch <- row + 1;
    if p >= 0 then begin
      Triplets.add b.gt p row 1.0;
      Triplets.add b.gt row p 1.0
    end;
    if n >= 0 then begin
      Triplets.add b.gt n row (-1.0);
      Triplets.add b.gt row n (-1.0)
    end;
    row

  let resistor b pos neg ohms = conductance b b.gt pos neg (1.0 /. ohms)

  let capacitor b pos neg farads = conductance b b.ct pos neg farads

  let inductor b pos neg henries =
    let row = branch b pos neg in
    Triplets.add b.ct row row (-.henries)

  let vsource b pos neg wave =
    let row = branch b pos neg in
    b.sources <- { row; sign = 1.0; wave } :: b.sources

  (* Positive source current flows from pos through the source to neg,
     i.e. it is extracted from pos and injected at neg. *)
  let isource b pos neg wave =
    let p = unknown b pos and n = unknown b neg in
    if p >= 0 then b.sources <- { row = p; sign = -1.0; wave } :: b.sources;
    if n >= 0 then b.sources <- { row = n; sign = 1.0; wave } :: b.sources

  let finish b : mna =
    let size = b.next_branch in
    if size = 0 then invalid_arg "Mna: circuit has no unknowns";
    let g_csc = Csc.of_triplets ~n:size b.gt in
    let c_csc = Csc.of_triplets ~n:size b.ct in
    (* One ordering, computed eagerly — [Mna.t] values are shared
       read-only across worker domains, where a lazy thunk would race.
       It orders the union pattern of G and C, so the transient
       iteration matrix G + hC (any timestep) reuses it; G's pattern is
       a subset. *)
    let pattern, _, _ = Csc.union g_csc c_csc in
    {
      size;
      num_node_unknowns = b.num_node_unknowns;
      sources = Array.of_list b.sources;
      unknown_of_node = Array.init (b.num_node_unknowns + 1) (fun i -> i - 1);
      g_csc;
      c_csc;
      sym = Numeric.Sparse.analyze pattern;
    }
end

let build nl =
  let b = Builder.create ~num_nodes:(Netlist.num_nodes nl) in
  List.iter
    (function
      | Element.Resistor { pos; neg; ohms; _ } -> Builder.resistor b pos neg ohms
      | Element.Capacitor { pos; neg; farads; _ } ->
          Builder.capacitor b pos neg farads
      | Element.Inductor { pos; neg; henries; _ } ->
          Builder.inductor b pos neg henries
      | Element.Vsource { pos; neg; wave; _ } -> Builder.vsource b pos neg wave
      | Element.Isource { pos; neg; wave; _ } -> Builder.isource b pos neg wave)
    (Netlist.elements nl);
  Builder.finish b

let rhs_into sys t b =
  if Array.length b < sys.size then invalid_arg "Mna.rhs_into: array too short";
  Array.fill b 0 (Array.length b) 0.0;
  for k = 0 to Array.length sys.sources - 1 do
    let { row; sign; wave } = sys.sources.(k) in
    b.(row) <- b.(row) +. (sign *. Waveform.value wave t)
  done

let rhs sys t =
  let b = Array.make sys.size 0.0 in
  rhs_into sys t b;
  b

let settled_rhs sys =
  let b = Array.make sys.size 0.0 in
  Array.iter
    (fun { row; sign; wave } ->
      b.(row) <- b.(row) +. (sign *. Waveform.settled wave))
    sys.sources;
  b

let voltage sys x node =
  let u = sys.unknown_of_node.(node) in
  if u < 0 then 0.0 else x.(u)
