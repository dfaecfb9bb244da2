(** Lowering a routing topology to a simulatable circuit.

    Following the paper's SPICE model (Section 2): wire resistance and
    capacitance are proportional to length (Table 1 values); each wire
    is expanded into a chain of lumped π-segments; the source pin is
    driven by the driver resistance from an ideal step source; and a
    sink loading capacitance sits at every pin. Wire widths from the
    WSORG formulation scale resistance down and capacitance up. *)

type segmentation =
  | Fixed of int  (** every edge becomes exactly this many π-segments *)
  | Per_length of { unit_length : float; max_segments : int }
      (** one segment per [unit_length] µm, at least 1, at most
          [max_segments] — long wires get more segments *)

val default_segmentation : segmentation
(** [Per_length { unit_length = 1000.0; max_segments = 6 }]. *)

val segments_for : segmentation -> float -> int
(** Number of segments chosen for an edge of a given length. *)

val source_node_name : string
(** Name of the driven source-pin node, ["n0"]. *)

val vertex_node_name : int -> string
(** ["n<i>"] — the circuit node of routing vertex [i]. *)

val pi_segments :
  segmentation:segmentation ->
  tech:Circuit.Technology.t ->
  length:float ->
  width:float ->
  int * float * float
(** [(n_seg, seg_r, seg_c)] for one wire: the segment count and the
    per-segment resistance and capacitance, computed exactly as
    {!circuit_of_routing} stamps them — the incremental oracle uses
    this to stamp an edited wire without rebuilding the netlist. *)

type lowered = {
  netlist : Circuit.Netlist.t;
  vertex_nodes : Circuit.Element.node array;
      (** routing vertex [i] → its circuit node (named
          {!vertex_node_name}[ i]) *)
  chains : ((int * int) * Circuit.Element.node array) array;
      (** one entry per wire, in {!Graphs.Wgraph.edges} order: its
          endpoints [(u, v)] with [u < v], and the nodes of its π-chain
          from [u] to [v], both ends included ([n_seg + 1] nodes). With
          inductance the R–L midpoints are not listed. *)
}
(** A routing lowered to a netlist, with the nodes the lowering gave
    each vertex and each wire — what the incremental oracle needs to
    find a wire's unknowns without looking nodes up by name. *)

val lower :
  ?segmentation:segmentation ->
  ?include_inductance:bool ->
  tech:Circuit.Technology.t ->
  Routing.t ->
  lowered
(** The lowering behind {!circuit_of_routing}, same defaults. *)

val circuit_of_routing :
  ?segmentation:segmentation ->
  ?include_inductance:bool ->
  tech:Circuit.Technology.t ->
  Routing.t ->
  Circuit.Netlist.t * string list
(** [circuit_of_routing ~tech r] is the netlist together with the node
    names of the net's sinks (in sink order n1..nk).

    Defaults: {!default_segmentation}, no inductance (the RC model the
    Elmore comparisons assume; pass [~include_inductance:true] for the
    full Table 1 RLC model). The net is driven by a 0→1 V ideal step at
    t = 0 (source ["Vin"]) through the driver resistance. *)
