(** Modified nodal analysis (MNA) assembly.

    A linear circuit with node voltages v and branch currents i (one
    branch unknown per voltage source and per inductor) satisfies

    G·x + C·dx/dt = b(t)

    where x = (v, i). {!Builder} is the only code that turns elements
    into G, C and b: {!build} feeds it a netlist's elements, and
    [Delay.Lumping.system] a routing's lumped circuit straight from the
    walk that also writes its netlist, so the delay oracles build no
    netlist. Ground (node 0) is eliminated; unknown indices therefore
    run over non-ground nodes first, then branches.

    G and C are stamped as triplets and kept only in compressed sparse
    column form, together with one precomputed fill-reducing ordering
    that serves both G and the transient's iteration matrix.
    Everything is built eagerly, so an [Mna.t] can be shared read-only
    across worker domains. Elements added on top of a built
    system (an edited wire) are not re-assembled here: they reach the
    transient as {!Transient.stamps}. *)

type source = {
  row : int;  (** the unknown whose equation the source drives *)
  sign : float;  (** +1 or -1: the source's orientation in that row *)
  wave : Circuit.Waveform.t;
}
(** One independent-source term of b(t): [sign *. value wave t] added
    to row [row]. *)

type t = {
  size : int;  (** total number of unknowns *)
  num_node_unknowns : int;  (** non-ground node count *)
  sources : source array;
      (** the terms of b(t), summed in array order (see {!rhs_into}) *)
  unknown_of_node : int array;
      (** netlist node id → unknown index; ground maps to -1 *)
  g_csc : Numeric.Sparse.Csc.t;
      (** static (conductance/incidence) part G; each entry sums its
          stamps in stamping order *)
  c_csc : Numeric.Sparse.Csc.t;
      (** reactive (capacitance/inductance) part C, likewise *)
  sym : Numeric.Sparse.Symbolic.t;
      (** the reverse Cuthill–McKee ordering of the union pattern of G
          and C: used to factor G and the transient iteration matrix
          G + C/h at every timestep. The ordering ignores the diagonal,
          so where C is diagonal (every lowered routing) it is G's own. *)
}

(** The one stamper: elements in, G, C, the branch rows, the sources
    and the ordering out. Node [k] is unknown [k - 1] (node 0 is
    ground); each voltage source and inductor takes the next branch
    unknown after the nodes, in stamping order. *)
module Builder : sig
  type mna := t
  type t

  val create : num_nodes:int -> t
  (** A builder for a circuit of [num_nodes] nodes, ground included.
      @raise Invalid_argument when [num_nodes < 1]. *)

  val resistor : t -> int -> int -> float -> unit
  val capacitor : t -> int -> int -> float -> unit
  val inductor : t -> int -> int -> float -> unit
  val vsource : t -> int -> int -> Circuit.Waveform.t -> unit
  val isource : t -> int -> int -> Circuit.Waveform.t -> unit
  (** [resistor b pos neg ohms] and its likes stamp one element
      between nodes [pos] and [neg], as {!Circuit.Element.t} describes
      it. Values are not checked.
      @raise Invalid_argument on a node outside the circuit. *)

  val finish : t -> mna
  (** The system of everything stamped, with its G∪C ordering.
      @raise Invalid_argument on an empty circuit (no unknowns). *)
end

val build : Circuit.Netlist.t -> t
(** The netlist's elements through one {!Builder}, in netlist order.
    @raise Invalid_argument on an empty circuit (no unknowns). *)

val rhs_into : t -> float -> float array -> unit
(** [rhs_into sys t b] overwrites [b] (length at least [size]) with
    b(t) zero-padded: zeros, then each source term added in array
    order. Allocates nothing, so the transient can evaluate it every
    step, also for a system grown by appended unknowns.
    @raise Invalid_argument when [b] is shorter than [size]. *)

val rhs : t -> float -> float array
(** b(t) in a fresh array. *)

val settled_rhs : t -> float array
(** The right-hand side with every source at its
    {!Circuit.Waveform.settled} level, summed as {!rhs_into} sums: the
    b whose DC solution is the state a threshold delay settles
    toward. *)

val voltage : t -> float array -> int -> float
(** [voltage sys x node] extracts a node voltage from a solution
    vector; ground reads 0. *)
