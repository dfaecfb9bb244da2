(** Lowering a routing topology to a simulatable circuit.

    Following the paper's SPICE model (Section 2): wire resistance and
    capacitance are proportional to length (Table 1 values); each wire
    is expanded into a chain of lumped π-segments; the source pin is
    driven by the driver resistance from an ideal step source; and a
    sink loading capacitance sits at every pin. Wire widths from the
    WSORG formulation scale resistance down and capacitance up.

    One walk over the lumped circuit decides its elements, their
    order, the node numbering and the check that every value is finite
    and positive. It has two consumers: {!system} stamps each element
    straight into a {!Spice.Mna.Builder}, naming nothing, which is what
    every delay oracle simulates; {!circuit_of_routing} names each
    element and node into a netlist, for deck export ([route --deck]),
    [spice_run] and the tests. *)

type segmentation =
  | Fixed of int  (** every edge becomes exactly this many π-segments *)
  | Per_length of { unit_length : float; max_segments : int }
      (** one segment per [unit_length] µm, at least 1, at most
          [max_segments] — long wires get more segments *)

val default_segmentation : segmentation
(** [Per_length { unit_length = 1000.0; max_segments = 6 }]. *)

val segments_for : segmentation -> float -> int
(** Number of segments chosen for an edge of a given length. *)

val vertex_node_name : int -> string
(** ["n<i>"] — the circuit node of routing vertex [i]. *)

val pi_segments :
  segmentation:segmentation ->
  tech:Circuit.Technology.t ->
  length:float ->
  width:float ->
  int * float * float
(** [(n_seg, seg_r, seg_c)] for one wire: the segment count and the
    per-segment resistance and capacitance, computed exactly as the
    lowering's walk emits them, and {!Model.score} stamps an edited
    wire. *)

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
    t = 0 (source ["Vin"]) through the driver resistance.

    @raise Invalid_argument as {!system} does. *)

type system = {
  mna : Spice.Mna.t;
      (** routing vertex [i] is unknown [i]; the driven node is unknown
          [num_vertices], the source's branch [mna.num_node_unknowns] *)
  chains : ((int * int) * int array) array;
      (** one entry per wire, in {!Graphs.Wgraph.edges} order: its
          endpoints [(u, v)] with [u < v], and the unknowns of its
          π-chain from [u] to [v], both ends included ([n_seg + 1]
          unknowns). With inductance the R–L midpoints are not
          listed. *)
}
(** A routing's MNA system with the unknowns of every wire, for
    restamping one ({!Model.score}). *)

val system :
  ?segmentation:segmentation ->
  ?include_inductance:bool ->
  tech:Circuit.Technology.t ->
  Routing.t ->
  system
(** [system ~tech r] is [Spice.Mna.build (fst (circuit_of_routing ~tech
    r))] (same defaults) built without the netlist: the same walk
    stamps the same elements in the same order through the same
    {!Spice.Mna.Builder}, so the two are bit for bit the same by
    construction.

    @raise Invalid_argument when an element value (a segment's R, C or
    L, [Rdrv] or the sink load) is not finite and positive — a
    zero-length or overflowing wire. {!circuit_of_routing} refuses the
    same routings with the same message. *)
