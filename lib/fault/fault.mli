(** Fault injection for the delay-oracle stack.

    The oracle layers (SPICE engine, moment solver) consult {!draw} at
    the start of every evaluation; when injection is enabled the draw
    occasionally tells them to fail as if a singular MNA stamp, a NaN
    waveform, or a never-settling probe had occurred. The robustness
    layer ({!Delay.Robust}) must then absorb the failure via
    retry-with-refinement and model degradation — which is exactly what
    the fault-injection test suite asserts.

    Injection is process-global, off by default, and — in probabilistic
    mode — keyed by the repository's splitmix64 RNG, so a given
    [(seed, rate)] pair reproduces the same fault schedule every run.
    The schedule state is mutex-protected: concurrent draws from
    worker domains (the [--jobs] evaluation layer) consume it without
    losing or duplicating entries, though the *assignment* of schedule
    entries to evaluations then depends on domain interleaving. *)

type kind =
  | Singular_stamp  (** behave as if LU factorisation found no pivot *)
  | Nan_value  (** behave as if a NaN escaped the transient waveform *)
  | Never_settles  (** behave as if a probe never crossed threshold *)

val disable : unit -> unit
(** Turn injection off (the default). *)

val enable : rate:float -> seed:int -> unit
(** Probabilistic mode, the [--fault-rate] switch of [bin/tables]: each
    {!draw} independently injects a fault with probability [rate],
    split evenly over the three kinds ([rate / 3] each).

    @raise Invalid_argument unless [0 <= rate <= 1] (so also for nan). *)

val script : kind option list -> unit
(** Deterministic mode: successive {!draw} calls consume the list
    ([None] = no fault); once exhausted, no further faults fire. Used
    by tests to force exact failure sequences, e.g. "SPICE fails three
    times, then the first-moment fallback fails once". *)

val active : unit -> bool

val draw : stage:string -> kind option
(** Consulted by the oracle layers; [stage] names the caller ("spice",
    "moments"). Every injected fault bumps
    {!Nontree_error.Counters.incr_faults_injected}. *)
