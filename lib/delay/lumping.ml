open Circuit

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

(* The net's drive: an ideal 0→1 V step at t = 0 through [Rdrv] into
   the source pin, as in the paper ("the root of the tree is driven by
   a resistor connected to the source pin"). *)
let drive_wave = Waveform.Step { t0 = 0.0; v0 = 0.0; v1 = 1.0 }

(* One wire's lumped values. *)
type wire = {
  u : int;
  v : int;
  n_seg : int;
  seg_r : float;
  seg_c : float;
  seg_l : float;
}

(* The wires of [r], in Wgraph.edges order, and the number of nodes
   {!walk} numbers, ground included. Every value is checked here, so
   both forms refuse the same routings. *)
let lump ~segmentation ~include_inductance ~tech r =
  let positive what v =
    if not (Float.is_finite v && v > 0.0) then
      invalid_arg (Printf.sprintf "Lumping: %s %g" what v)
  in
  positive "Rdrv" tech.Technology.driver_resistance;
  positive "sink capacitance" tech.Technology.sink_capacitance;
  let wire (e : Graphs.Wgraph.edge) =
    let n_seg, seg_r, seg_c =
      pi_segments ~segmentation ~tech ~length:e.w
        ~width:(Routing.width r e.u e.v)
    in
    let seg_len = e.w /. float_of_int n_seg in
    let seg_l = Technology.wire_inductance_of tech ~length:seg_len in
    positive "segment resistance" seg_r;
    positive "segment capacitance" (seg_c /. 2.0);
    if include_inductance then positive "segment inductance" seg_l;
    { u = e.u; v = e.v; n_seg; seg_r; seg_c; seg_l }
  in
  let wires =
    Array.of_list (List.map wire (Graphs.Wgraph.edges (Routing.graph r)))
  in
  let nodes n w = n + w.n_seg - 1 + if include_inductance then w.n_seg else 0 in
  (wires, Array.fold_left nodes (Routing.num_vertices r + 2) wires)

(* What a node or an element of the walk is, for a consumer that names
   it. *)
type node_part = Vertex | Drive | Interior | Midpoint
type part = Vin | Rdrv | Cpin | Seg_r | Seg_l | Seg_ca | Seg_cb

(* The one walk over a lumped circuit. It numbers the nodes as a
   netlist numbers them in order of creation: ground 0, vertex i at
   i + 1, the drive, then each wire's interior nodes and then its R–L
   midpoints. It tells [node part k] of every node after ground, in
   that order ([k] the vertex or the wire), and [element part k s pos
   neg value] of every element, in deck order: [Vin] (no value), [Rdrv],
   each pin [k]'s load, then each wire [k]'s segments [s]: R, or R
   then L through a midpoint, then half the segment's C at each end.
   Returns each wire's chain of unknowns (node - 1). *)
let walk ~include_inductance ~tech r wires ~node ~element =
  let nv = Routing.num_vertices r in
  for i = 0 to nv - 1 do
    node Vertex i
  done;
  node Drive 0;
  element Vin 0 0 (nv + 1) 0 0.0;
  element Rdrv 0 0 (nv + 1) 1 tech.Technology.driver_resistance;
  for i = 0 to Routing.num_terminals r - 1 do
    element Cpin i 0 (i + 1) 0 tech.Technology.sink_capacitance
  done;
  let next = ref (nv + 2) in
  Array.mapi
    (fun k w ->
      let chain =
        Array.init (w.n_seg + 1) (fun s ->
            if s = 0 then w.u
            else if s = w.n_seg then w.v
            else !next + s - 2)
      in
      for _ = 1 to w.n_seg - 1 do
        node Interior k
      done;
      next := !next + w.n_seg - 1;
      for s = 0 to w.n_seg - 1 do
        let a = chain.(s) + 1 and b = chain.(s + 1) + 1 in
        if include_inductance then begin
          node Midpoint k;
          element Seg_r k s a !next w.seg_r;
          element Seg_l k s !next b w.seg_l;
          incr next
        end
        else element Seg_r k s a b w.seg_r;
        element Seg_ca k s a 0 (w.seg_c /. 2.0);
        element Seg_cb k s b 0 (w.seg_c /. 2.0)
      done;
      ((w.u, w.v), chain))
    wires

let circuit_of_routing ?(segmentation = default_segmentation)
    ?(include_inductance = false) ~tech r =
  let wires, _ = lump ~segmentation ~include_inductance ~tech r in
  let nl = Netlist.create () in
  let prefix k = Printf.sprintf "e%d_%d" wires.(k).u wires.(k).v in
  let node part k =
    ignore
      (match part with
      | Vertex -> Netlist.node nl (vertex_node_name k)
      | Drive -> Netlist.node nl "drive"
      | Interior -> Netlist.fresh_node nl (prefix k)
      | Midpoint -> Netlist.fresh_node nl (prefix k ^ "l"))
  in
  let element part k s pos neg value =
    let name fmt = Printf.sprintf fmt (prefix k) s in
    match part with
    | Vin -> Netlist.vsource nl ~name:"Vin" pos neg drive_wave
    | Rdrv -> Netlist.resistor nl ~name:"Rdrv" pos neg value
    | Cpin ->
        Netlist.capacitor nl ~name:(Printf.sprintf "Cpin%d" k) pos neg value
    | Seg_r -> Netlist.resistor nl ~name:(name "R%s_%d") pos neg value
    | Seg_l -> Netlist.inductor nl ~name:(name "L%s_%d") pos neg value
    | Seg_ca -> Netlist.capacitor nl ~name:(name "C%s_%da") pos neg value
    | Seg_cb -> Netlist.capacitor nl ~name:(name "C%s_%db") pos neg value
  in
  ignore (walk ~include_inductance ~tech r wires ~node ~element);
  (nl, List.map vertex_node_name (Routing.sinks r))

type system = {
  mna : Spice.Mna.t;
  chains : ((int * int) * int array) array;
}

let system ?(segmentation = default_segmentation) ?(include_inductance = false)
    ~tech r =
  let wires, num_nodes = lump ~segmentation ~include_inductance ~tech r in
  let module B = Spice.Mna.Builder in
  let b = B.create ~num_nodes in
  let element part _ _ pos neg value =
    match part with
    | Vin -> B.vsource b pos neg drive_wave
    | Rdrv | Seg_r -> B.resistor b pos neg value
    | Seg_l -> B.inductor b pos neg value
    | Cpin | Seg_ca | Seg_cb -> B.capacitor b pos neg value
  in
  let chains =
    walk ~include_inductance ~tech r wires ~node:(fun _ _ -> ()) ~element
  in
  { mna = B.finish b; chains }
