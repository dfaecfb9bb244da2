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

let source_node_name = "n0"
let vertex_node_name i = Printf.sprintf "n%d" i

(* The single source of truth for how one wire lowers to π-segments:
   both the full netlist builder below and the incremental stamp-delta
   path must derive bit-identical per-segment R and C values. *)
let pi_segments ~segmentation ~tech ~length ~width =
  let n_seg = segments_for segmentation length in
  let seg_len = length /. float_of_int n_seg in
  let seg_r = Technology.wire_resistance_of tech ~length:seg_len ~width in
  let seg_c = Technology.wire_capacitance_of tech ~length:seg_len ~width in
  (n_seg, seg_r, seg_c)

type lowered = {
  netlist : Netlist.t;
  vertex_nodes : Element.node array;
  chains : ((int * int) * Element.node array) array;
}

let lower ?(segmentation = default_segmentation) ?(include_inductance = false)
    ~tech r =
  let nl = Netlist.create () in
  let vertex_nodes =
    Array.init (Routing.num_vertices r) (fun i ->
        Netlist.node nl (vertex_node_name i))
  in
  (* Driver: an ideal 0→1 V step at t = 0 through the driver resistance
     into the source pin, as in the paper ("the root of the tree is
     driven by a resistor connected to the source pin"). *)
  let drive = Netlist.node nl "drive" in
  Netlist.vsource nl ~name:"Vin" drive Netlist.ground
    (Waveform.Step { t0 = 0.0; v0 = 0.0; v1 = 1.0 });
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
  let chains =
    List.map
      (fun (e : Graphs.Wgraph.edge) ->
        let width = Routing.width r e.u e.v in
        let length = e.w in
        let n_seg, seg_r, seg_c =
          pi_segments ~segmentation ~tech ~length ~width
        in
        let seg_len = length /. float_of_int n_seg in
        let seg_l = Technology.wire_inductance_of tech ~length:seg_len in
        let prefix = Printf.sprintf "e%d_%d" e.u e.v in
        let nodes =
          Array.init (n_seg + 1) (fun s ->
              if s = 0 then vertex_nodes.(e.u)
              else if s = n_seg then vertex_nodes.(e.v)
              else Netlist.fresh_node nl prefix)
        in
        for s = 0 to n_seg - 1 do
          let a = nodes.(s) and b = nodes.(s + 1) in
          if include_inductance then begin
            let mid = Netlist.fresh_node nl (prefix ^ "l") in
            Netlist.resistor nl ~name:(Printf.sprintf "R%s_%d" prefix s) a mid
              seg_r;
            Netlist.inductor nl ~name:(Printf.sprintf "L%s_%d" prefix s) mid b
              seg_l
          end
          else
            Netlist.resistor nl ~name:(Printf.sprintf "R%s_%d" prefix s) a b
              seg_r;
          Netlist.capacitor nl
            ~name:(Printf.sprintf "C%s_%da" prefix s)
            a Netlist.ground (seg_c /. 2.0);
          Netlist.capacitor nl
            ~name:(Printf.sprintf "C%s_%db" prefix s)
            b Netlist.ground (seg_c /. 2.0)
        done;
        ((e.u, e.v), nodes))
      (Graphs.Wgraph.edges (Routing.graph r))
  in
  { netlist = nl; vertex_nodes; chains = Array.of_list chains }

let circuit_of_routing ?segmentation ?include_inductance ~tech r =
  let l = lower ?segmentation ?include_inductance ~tech r in
  (l.netlist, List.map vertex_node_name (Routing.sinks r))
