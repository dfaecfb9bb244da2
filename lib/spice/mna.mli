(** Modified nodal analysis (MNA) assembly.

    A linear circuit with node voltages v and branch currents i (one
    branch unknown per voltage source and per inductor) satisfies

    G·x + C·dx/dt = b(t)

    where x = (v, i). This module builds G, C and b from a netlist.
    Ground (node 0) is eliminated; unknown indices therefore run over
    non-ground nodes first, then branches.

    G and C are stamped as triplets and kept only in compressed sparse
    column form, together with precomputed fill-reducing orderings.
    Everything is built eagerly, so an [Mna.t] can be shared read-only
    across worker domains. A dense image, where one is needed (AC
    analysis, tests), is made on demand with
    {!Numeric.Sparse.Csc.to_matrix}. *)

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
  g_sym : Numeric.Sparse.Symbolic.t option;
      (** ordering for G's pattern; [None] on {!Delta.extend}ed
          systems, whose DC states the incremental scorer derives from
          the base G plus one series conductance —
          {!factor_g_result} then orders G itself *)
  lhs_sym : Numeric.Sparse.Symbolic.t;
      (** ordering for the union pattern of G and C — valid for the
          transient iteration matrix G + C/h at every timestep *)
}

val build : Circuit.Netlist.t -> t
(** @raise Invalid_argument on an empty circuit (no unknowns). *)

val rhs_into : t -> float -> float array -> unit
(** [rhs_into sys t b] overwrites [b] (length [size]) with b(t): zeros,
    then each source term added in array order. Allocates nothing, so
    the transient can evaluate it every step.
    @raise Invalid_argument on a length mismatch. *)

val rhs : t -> float -> float array
(** b(t) in a fresh array. *)

val factor_g_result : t -> (Numeric.Backend.t, int) result
(** Factor G with {!Numeric.Backend}, reusing the precomputed [g_sym]
    ordering when there is one; error codes as
    {!Numeric.Lu.try_factor}. *)

val factor_g : t -> Numeric.Backend.t
(** @raise Numeric.Lu.Singular when G has no usable pivot. *)

val voltage : t -> float array -> int -> float
(** [voltage sys x node] extracts a node voltage from a solution
    vector; ground reads 0. *)

(** Stamp deltas: the elements added on top of an already-built system,
    kept symbolic instead of re-assembled.

    A delta records two-terminal conductance/capacitance stamps between
    existing unknowns, ground ([-1]) and freshly appended unknowns
    (internal nodes of an added wire, numbered from [size] upward,
    after every base unknown — node voltages of the base system keep
    their indices). A resized wire's stamp changes land on its existing
    chain unknowns and append nothing. {!extend} materialises the
    extended system for the transient, whose companion matrix depends
    on the timestep anyway. The DC and settle solves of an edited wire
    need no delta: at DC its π-chain is one series conductance between
    its end unknowns (see {!Numeric.Backend.with_conductance}). *)
module Delta : sig
  type mna := t

  type t

  val create : mna -> t
  (** An empty delta over [sys]; records the base size. *)

  val fresh_unknown : t -> int
  (** Allocate one appended unknown and return its index. *)

  val add_conductance : t -> int -> int -> float -> unit
  (** [add_conductance d i j g] stamps a conductance between unknowns
      [i] and [j] ([-1] for ground), as [Mna.build] does for a
      resistor.
      @raise Invalid_argument on an out-of-range index. *)

  val add_capacitance : t -> int -> int -> float -> unit
  (** Same for the reactive matrix (a capacitor). *)

  val extend : mna -> t -> mna
  (** The extended system as a plain [Mna.t]: matrices grown and
      stamped (each entry is the base entry plus the delta stamps, in
      stamping order), the same sources (so b(t) is the base b(t)
      zero-padded), node→unknown map unchanged, and no [g_sym].
      @raise Invalid_argument when [d] was built from a system of a
      different size. *)
end
