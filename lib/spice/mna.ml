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

let build nl =
  let num_nodes = Netlist.num_nodes nl in
  let elements = Netlist.elements nl in
  let branches =
    List.filter
      (function Element.Vsource _ | Element.Inductor _ -> true | _ -> false)
      elements
  in
  let num_node_unknowns = num_nodes - 1 in
  let size = num_node_unknowns + List.length branches in
  if size = 0 then invalid_arg "Mna.build: circuit has no unknowns";
  let unknown_of_node = Array.init num_nodes (fun i -> i - 1) in
  let gt = Triplets.create ~capacity:(4 * List.length elements) () in
  let ct = Triplets.create ~capacity:(4 * List.length elements) () in
  let idx node = unknown_of_node.(node) in
  let stamp_conductance m pos neg value =
    let p = idx pos and n = idx neg in
    if p >= 0 then Triplets.add m p p value;
    if n >= 0 then Triplets.add m n n value;
    if p >= 0 && n >= 0 then begin
      Triplets.add m p n (-.value);
      Triplets.add m n p (-.value)
    end
  in
  (* b(t) contributions, newest first. *)
  let source_terms = ref [] in
  let next_branch = ref num_node_unknowns in
  List.iter
    (fun e ->
      match e with
      | Element.Resistor { pos; neg; ohms; _ } ->
          stamp_conductance gt pos neg (1.0 /. ohms)
      | Element.Capacitor { pos; neg; farads; _ } ->
          stamp_conductance ct pos neg farads
      | Element.Vsource { pos; neg; wave; _ } ->
          let row = !next_branch in
          incr next_branch;
          let p = idx pos and n = idx neg in
          if p >= 0 then begin
            Triplets.add gt p row 1.0;
            Triplets.add gt row p 1.0
          end;
          if n >= 0 then begin
            Triplets.add gt n row (-1.0);
            Triplets.add gt row n (-1.0)
          end;
          source_terms := { row; sign = 1.0; wave } :: !source_terms
      | Element.Inductor { pos; neg; henries; _ } ->
          let row = !next_branch in
          incr next_branch;
          let p = idx pos and n = idx neg in
          if p >= 0 then begin
            Triplets.add gt p row 1.0;
            Triplets.add gt row p 1.0
          end;
          if n >= 0 then begin
            Triplets.add gt n row (-1.0);
            Triplets.add gt row n (-1.0)
          end;
          Triplets.add ct row row (-.henries)
      | Element.Isource { pos; neg; wave; _ } ->
          (* Positive source current flows from pos through the source
             to neg, i.e. it is extracted from pos and injected at neg. *)
          let p = idx pos and n = idx neg in
          if p >= 0 then
            source_terms := { row = p; sign = -1.0; wave } :: !source_terms;
          if n >= 0 then
            source_terms := { row = n; sign = 1.0; wave } :: !source_terms)
    elements;
  (* One ordering, computed eagerly — [Mna.t] values are shared
     read-only across worker domains, where a lazy thunk would race. It
     orders the union pattern of G and C, so the transient iteration
     matrix G + hC (any timestep) reuses it; G's
     pattern is a subset, and the RCM ignores the diagonal, so wherever
     C is diagonal (every lowered routing) it is exactly G's own
     ordering too. *)
  let sym =
    let u = Triplets.create ~capacity:(Triplets.length gt + Triplets.length ct) () in
    Triplets.iter gt (fun i j _ -> Triplets.add u i j 1.0);
    Triplets.iter ct (fun i j _ -> Triplets.add u i j 1.0);
    Numeric.Sparse.analyze (Csc.of_triplets ~n:size u)
  in
  {
    size;
    num_node_unknowns;
    sources = Array.of_list !source_terms;
    unknown_of_node;
    g_csc = Csc.of_triplets ~n:size gt;
    c_csc = Csc.of_triplets ~n:size ct;
    sym;
  }

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
