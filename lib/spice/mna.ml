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
  g_sym : Numeric.Sparse.Symbolic.t option;
  lhs_sym : Numeric.Sparse.Symbolic.t;
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
  (* The orderings are computed eagerly — [Mna.t] values are shared
     read-only across worker domains, where a lazy thunk would race.
     [lhs_sym] orders the union pattern of G and C: the transient
     iteration matrix G + C/h (any h, any integration method) and every
     doubled-timestep refactor reuse it. *)
  let g_csc = Csc.of_triplets ~n:size gt in
  let lhs_sym =
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
    g_csc;
    c_csc = Csc.of_triplets ~n:size ct;
    g_sym = Some (Numeric.Sparse.analyze g_csc);
    lhs_sym;
  }

let rhs_into sys t b =
  if Array.length b <> sys.size then invalid_arg "Mna.rhs_into: length mismatch";
  Array.fill b 0 sys.size 0.0;
  for k = 0 to Array.length sys.sources - 1 do
    let { row; sign; wave } = sys.sources.(k) in
    b.(row) <- b.(row) +. (sign *. Waveform.value wave t)
  done

let rhs sys t =
  let b = Array.make sys.size 0.0 in
  rhs_into sys t b;
  b

let voltage sys x node =
  let u = sys.unknown_of_node.(node) in
  if u < 0 then 0.0 else x.(u)

(* G is factored in several places (DC operating point, settle probe,
   incremental base) — one helper keeps them all on the precomputed
   ordering. *)
let factor_g_result sys =
  Numeric.Backend.try_factor ?symbolic:sys.g_sym sys.g_csc

let factor_g sys =
  match factor_g_result sys with
  | Ok f -> f
  | Error k -> raise (Numeric.Lu.Singular k)

(* Stamp deltas ---------------------------------------------------------- *)

module Delta = struct
  type base = t

  type stamp = { i : int; j : int; value : float }

  type t = {
    base_size : int;
    mutable added : int;
    mutable g_stamps : stamp list;  (* newest first *)
    mutable c_stamps : stamp list;
  }

  let create (sys : base) =
    { base_size = sys.size; added = 0; g_stamps = []; c_stamps = [] }

  let size d = d.base_size + d.added
  let fresh_unknown d =
    let u = d.base_size + d.added in
    d.added <- d.added + 1;
    u

  let check_index d u =
    if u < -1 || u >= size d then
      invalid_arg "Mna.Delta: unknown index out of range"

  let add_conductance d i j value =
    check_index d i;
    check_index d j;
    d.g_stamps <- { i; j; value } :: d.g_stamps

  let add_capacitance d i j value =
    check_index d i;
    check_index d j;
    d.c_stamps <- { i; j; value } :: d.c_stamps

  let stamp m i j value =
    if i >= 0 then Triplets.add m i i value;
    if j >= 0 then Triplets.add m j j value;
    if i >= 0 && j >= 0 then begin
      Triplets.add m i j (-.value);
      Triplets.add m j i (-.value)
    end

  (* The extended matrices start from the base entries, each already
     the sum of its base stamps, and append the delta stamps in order:
     every entry sums exactly as if all stamps had been replayed. The
     sources keep their rows, all below the base size. No ordering is
     recomputed: the union order is the base one with the appended
     unknowns eliminated last, and there is no [g_sym] (the incremental
     scorer solves the base G plus one series conductance instead). *)
  let extend (sys : base) d =
    if sys.size <> d.base_size then
      invalid_arg "Mna.Delta.extend: delta built from a different system";
    let nt = size d in
    let seed csc stamps =
      let t =
        Triplets.create ~capacity:(Csc.nnz csc + (4 * List.length stamps)) ()
      in
      Csc.iter csc (Triplets.add t);
      List.iter (fun { i; j; value } -> stamp t i j value) (List.rev stamps);
      t
    in
    let gt = seed sys.g_csc d.g_stamps and ct = seed sys.c_csc d.c_stamps in
    {
      sys with
      size = nt;
      g_csc = Csc.of_triplets ~n:nt gt;
      c_csc = Csc.of_triplets ~n:nt ct;
      g_sym = None;
      lhs_sym = Numeric.Sparse.Symbolic.extend sys.lhs_sym d.added;
    }
end
