(** Typed operational errors for the delay-oracle stack.

    The oracle route (LU factorisation → transient engine → delay
    models → LDRG/SLDRG loops) used to abort whole experiment runs with
    bare [failwith]/[invalid_arg] on the first bad net. These variants
    classify every operational failure so callers can retry with a
    refined configuration, degrade to a cheaper model, or drop a single
    net — and so binaries can emit one-line diagnostics instead of
    backtraces.

    Programming errors (wrong argument shapes, unknown probe names)
    remain [Invalid_argument] exceptions; only failures that depend on
    runtime data travel through this type. *)

type t =
  | Singular_matrix of { stage : string; column : int }
      (** LU found no usable pivot; [stage] names the computation
          ("spice.factor", "moments.factor", ...), [column] the pivot
          column ([-1] when the input matrix contained non-finite
          entries). *)
  | Non_finite of { stage : string; value : float }
      (** A NaN or infinity escaped a numeric stage (waveform blow-up,
          diverging solve). *)
  | Probe_never_settled of { probe : string; horizon : float }
      (** A transient probe never crossed its threshold within the
          (extended) simulation window of [horizon] seconds. *)
  | Invalid_net of string
      (** The net or routing itself is unusable (coincident pins, too
          few pins, tree-only oracle on a non-tree routing, ...). Never
          retried: no amount of refinement fixes the input. *)

exception Error of t
(** Carrier used where an exception channel is unavoidable (greedy-loop
    objectives, legacy callers). Catch with {!protect} or match on
    [Error]. *)

val raise_error : t -> 'a

val singular : stage:string -> int -> t
(** A sparse factorisation's refusal code [k] as a typed error:
    [Non_finite] for [k = -1] (a non-finite input entry),
    [Singular_matrix] at column [k] otherwise. *)

val to_string : t -> string
(** One-line, human-readable rendering — what binaries print before
    exiting nonzero. *)

val protect : (unit -> 'a) -> ('a, t) result
(** [protect f] runs [f], converting a raised {!Error} back into
    [Result]. Other exceptions pass through. *)

(** Per-run robustness counters.

    Global (per-process) tallies of every fault-handling event; reset
    at the start of a run and surfaced by [bin/tables] / the harness as
    a one-line summary. All counters are atomic, so increments from
    worker domains (the [--jobs] evaluation layer) are never lost and
    the summary stays exact under parallel runs. *)
module Counters : sig
  type snapshot = {
    retries : int;  (** refined re-runs of a failed oracle evaluation *)
    moment_fallbacks : int;  (** degradations SPICE → first moment *)
    elmore_fallbacks : int;  (** degradations first moment → Elmore *)
    faults_injected : int;  (** faults the {!Fault} module injected *)
    faults_survived : int;  (** injected faults absorbed by an Ok result *)
    dropped_evaluations : int;
        (** candidate evaluations abandoned inside a greedy loop *)
    dropped_nets : int;  (** whole nets excluded from a table *)
    oracle_errors : int;  (** evaluations that failed even after fallback *)
  }

  val reset : unit -> unit
  val snapshot : unit -> snapshot
  val any : unit -> bool
  (** True when any counter is nonzero. *)

  val incr_retries : unit -> unit
  val incr_moment_fallbacks : unit -> unit
  val incr_elmore_fallbacks : unit -> unit
  val incr_faults_injected : unit -> unit
  val add_faults_survived : int -> unit
  val incr_dropped_evaluations : unit -> unit
  val incr_dropped_nets : unit -> unit
  val incr_oracle_errors : unit -> unit

  val faults_injected : unit -> int
  (** Process-wide injected-fault total (all domains). *)

  val faults_injected_local : unit -> int
  (** Injected-fault tally of the *calling domain* only. An oracle
      evaluation runs entirely on one domain, so reading this before
      and after gives the exact number of faults injected into that
      evaluation even while other domains inject concurrently. *)

  val summary : unit -> string
  (** One line, e.g.
      ["robustness: 3 retries, 2 fallbacks (1 elmore), 5 faults injected, 5 survived, 0 nets dropped"]. *)
end
