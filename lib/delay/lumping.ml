open Circuit
module Triplets = Numeric.Sparse.Triplets

type segmentation =
  | Fixed of int
  | Per_length of { unit_length : float; max_segments : int }

let default_segmentation = Per_length { unit_length = 1000.0; max_segments = 6 }

let segments_for seg length =
  match seg with
  | Fixed n ->
      if n < 1 then invalid_arg "Lumping: segments must be >= 1";
      n
  | Per_length { unit_length; max_segments } ->
      let n = int_of_float (ceil (length /. unit_length)) in
      Int.max 1 (Int.min max_segments n)

let vertex_node_name i = Printf.sprintf "n%d" i

(* The single source of truth for how one wire lowers to π-segments:
   the netlist, the direct system and the incremental stamp path must
   all derive bit-identical per-segment R and C values. *)
let pi_segments ~segmentation ~tech ~length ~width =
  let n_seg = segments_for segmentation length in
  let seg_len = length /. float_of_int n_seg in
  let seg_r = Technology.wire_resistance_of tech ~length:seg_len ~width in
  let seg_c = Technology.wire_capacitance_of tech ~length:seg_len ~width in
  (n_seg, seg_r, seg_c)

(* One wire's lumped values, shared by the netlist and the system. *)
type wire = {
  u : int;
  v : int;
  n_seg : int;
  seg_r : float;
  seg_c : float;
  seg_l : float;
}

let wires ~segmentation ~tech r =
  List.map
    (fun (e : Graphs.Wgraph.edge) ->
      let n_seg, seg_r, seg_c =
        pi_segments ~segmentation ~tech ~length:e.w
          ~width:(Routing.width r e.u e.v)
      in
      let seg_len = e.w /. float_of_int n_seg in
      let seg_l = Technology.wire_inductance_of tech ~length:seg_len in
      { u = e.u; v = e.v; n_seg; seg_r; seg_c; seg_l })
    (Graphs.Wgraph.edges (Routing.graph r))

(* The net's drive: an ideal 0→1 V step at t = 0 through [Rdrv] into
   the source pin, as in the paper ("the root of the tree is driven by
   a resistor connected to the source pin"). *)
let drive_wave = Waveform.Step { t0 = 0.0; v0 = 0.0; v1 = 1.0 }

let circuit_of_routing ?(segmentation = default_segmentation)
    ?(include_inductance = false) ~tech r =
  let nl = Netlist.create () in
  let vertex_nodes =
    Array.init (Routing.num_vertices r) (fun i ->
        Netlist.node nl (vertex_node_name i))
  in
  let drive = Netlist.node nl "drive" in
  Netlist.vsource nl ~name:"Vin" drive Netlist.ground drive_wave;
  Netlist.resistor nl ~name:"Rdrv" drive vertex_nodes.(0)
    tech.Technology.driver_resistance;
  (* Sink loading capacitance at every pin of the net. *)
  for i = 0 to Routing.num_terminals r - 1 do
    Netlist.capacitor nl
      ~name:(Printf.sprintf "Cpin%d" i)
      vertex_nodes.(i) Netlist.ground tech.Technology.sink_capacitance
  done;
  (* Wires: chains of pi-segments. Each segment contributes half its
     capacitance at each end, so interior nodes see the full per-segment
     capacitance and edge endpoints see half. *)
  List.iter
    (fun w ->
      let prefix = Printf.sprintf "e%d_%d" w.u w.v in
      let nodes =
        Array.init (w.n_seg + 1) (fun s ->
            if s = 0 then vertex_nodes.(w.u)
            else if s = w.n_seg then vertex_nodes.(w.v)
            else Netlist.fresh_node nl prefix)
      in
      for s = 0 to w.n_seg - 1 do
        let a = nodes.(s) and b = nodes.(s + 1) in
        if include_inductance then begin
          let mid = Netlist.fresh_node nl (prefix ^ "l") in
          Netlist.resistor nl ~name:(Printf.sprintf "R%s_%d" prefix s) a mid
            w.seg_r;
          Netlist.inductor nl ~name:(Printf.sprintf "L%s_%d" prefix s) mid b
            w.seg_l
        end
        else
          Netlist.resistor nl ~name:(Printf.sprintf "R%s_%d" prefix s) a b
            w.seg_r;
        Netlist.capacitor nl
          ~name:(Printf.sprintf "C%s_%da" prefix s)
          a Netlist.ground (w.seg_c /. 2.0);
        Netlist.capacitor nl
          ~name:(Printf.sprintf "C%s_%db" prefix s)
          b Netlist.ground (w.seg_c /. 2.0)
      done)
    (wires ~segmentation ~tech r);
  (nl, List.map vertex_node_name (Routing.sinks r))

type system = {
  mna : Spice.Mna.t;
  chains : ((int * int) * int array) array;
}

(* The netlist above numbers its nodes ground, n0..n(V-1), drive, then
   each wire's interior nodes (and with inductance its R–L midpoints,
   after them); Mna.build gives node id k the unknown k - 1 and the
   branches (Vin, then the inductors in element order) the unknowns
   after the nodes. [system] numbers the same way and stamps each
   element's entries in the order Mna.build stamps that element, so
   every entry sums its stamps in the same order. *)
let system ?(segmentation = default_segmentation) ?(include_inductance = false)
    ~tech r =
  let positive what v =
    if not (Float.is_finite v && v > 0.0) then
      invalid_arg (Printf.sprintf "Lumping.system: %s %g" what v)
  in
  let rdrv = tech.Technology.driver_resistance in
  let cpin = tech.Technology.sink_capacitance in
  positive "Rdrv" rdrv;
  positive "sink capacitance" cpin;
  let wires = Array.of_list (wires ~segmentation ~tech r) in
  let nv = Routing.num_vertices r in
  let interiors = ref 0 and segments = ref 0 in
  Array.iter
    (fun w ->
      positive "segment resistance" w.seg_r;
      positive "segment capacitance" (w.seg_c /. 2.0);
      if include_inductance then positive "segment inductance" w.seg_l;
      interiors := !interiors + w.n_seg - 1;
      segments := !segments + w.n_seg)
    wires;
  let inductors = if include_inductance then !segments else 0 in
  let drive = nv in
  let num_node_unknowns = nv + 1 + !interiors + inductors in
  let vin = num_node_unknowns in
  let size = vin + 1 + inductors in
  let elements = 2 + Routing.num_terminals r + (3 * !segments) + inductors in
  let gt = Triplets.create ~capacity:(4 * elements) () in
  let ct = Triplets.create ~capacity:(4 * elements) () in
  (* Both terminals of every conductance here are non-ground. *)
  let conductance m p n value =
    Triplets.add m p p value;
    Triplets.add m n n value;
    Triplets.add m p n (-.value);
    Triplets.add m n p (-.value)
  in
  Triplets.add gt drive vin 1.0;
  Triplets.add gt vin drive 1.0;
  (* Rdrv from the drive node to the source pin, vertex 0. *)
  conductance gt drive 0 (1.0 /. rdrv);
  for i = 0 to Routing.num_terminals r - 1 do
    Triplets.add ct i i cpin
  done;
  let next_node = ref (nv + 1) and next_branch = ref (vin + 1) in
  let chains =
    Array.map
      (fun w ->
        let chain =
          Array.init (w.n_seg + 1) (fun s ->
              if s = 0 then w.u
              else if s = w.n_seg then w.v
              else !next_node + s - 1)
        in
        next_node := !next_node + w.n_seg - 1;
        for s = 0 to w.n_seg - 1 do
          let a = chain.(s) and b = chain.(s + 1) in
          if include_inductance then begin
            let mid = !next_node and row = !next_branch in
            incr next_node;
            incr next_branch;
            conductance gt a mid (1.0 /. w.seg_r);
            Triplets.add gt mid row 1.0;
            Triplets.add gt row mid 1.0;
            Triplets.add gt b row (-1.0);
            Triplets.add gt row b (-1.0);
            Triplets.add ct row row (-.w.seg_l)
          end
          else conductance gt a b (1.0 /. w.seg_r);
          Triplets.add ct a a (w.seg_c /. 2.0);
          Triplets.add ct b b (w.seg_c /. 2.0)
        done;
        ((w.u, w.v), chain))
      wires
  in
  let g_csc = Numeric.Sparse.Csc.of_triplets ~n:size gt in
  let mna =
    {
      Spice.Mna.size;
      num_node_unknowns;
      sources = [| { Spice.Mna.row = vin; sign = 1.0; wave = drive_wave } |];
      unknown_of_node = Array.init (num_node_unknowns + 1) (fun i -> i - 1);
      g_csc;
      c_csc = Numeric.Sparse.Csc.of_triplets ~n:size ct;
      (* C is diagonal and the ordering ignores the diagonal, so G's
         ordering is Mna.build's G∪C ordering. *)
      sym = Numeric.Sparse.analyze g_csc;
    }
  in
  { mna; chains }
