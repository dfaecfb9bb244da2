(** Small-signal AC (frequency-domain) analysis.

    Solves the phasor MNA system (G + jωC)·x = b at each frequency of
    a sweep, with one chosen independent voltage source driven at
    1 V∠0° and every other source turned off — SPICE's [.AC] with an
    ACMAG of 1 on the source of interest. Everything in these circuits
    is linear, so this is exact.

    Each frequency is solved on {!Numeric.Sparse} as the real system
    [G −ωC; ωC G]·[xr; xi] = [b; 0] (x = xr + j·xi), assembled from the
    MNA system's CSC G and C; its pattern does not depend on ω, so a
    sweep computes one ordering. *)

type point = {
  freq_hz : float;
  response : Complex.t;  (** phasor voltage at the probed node *)
}

type sweep = point list

val log_frequencies :
  f_start:float -> f_stop:float -> points_per_decade:int -> float list
(** Logarithmic frequency grid inclusive of [f_start].

    @raise Invalid_argument unless [0 < f_start < f_stop] and
    [points_per_decade > 0]. *)

val analyze :
  Circuit.Netlist.t ->
  source:string ->
  probes:string list ->
  frequencies:float list ->
  sweep list
(** [analyze nl ~source ~probes ~frequencies] drives the named voltage
    source with a unit phasor and records every probed node: one sweep
    per probe, in [probes] order, all read from one build, one ordering
    and one factorisation and solve per frequency.

    @raise Invalid_argument when [source] is not a voltage source of
    the netlist or a probe is not a node.
    @raise Nontree_error.Error with [Singular_matrix] (stage
    ["spice.ac"], [column] the unknown whose real or imaginary part
    found no usable pivot) when G + jωC is singular at some frequency,
    e.g. on a node pair floating free of every source and capacitor;
    [Non_finite] when an element value is not finite. *)

val magnitude_db : point -> float
(** 20·log₁₀ |response|. *)

val phase_deg : point -> float

val bandwidth_3db : sweep -> float option
(** First frequency where the magnitude drops 3 dB below the sweep's
    first point; [None] when it never does (interpolated
    logarithmically between grid points). *)

val to_csv : sweep -> string
(** Columns: freq_hz, magnitude_db, phase_deg. *)
