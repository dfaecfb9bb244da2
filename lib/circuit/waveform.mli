(** Independent-source waveforms.

    Only the shapes needed for interconnect delay simulation are
    provided; all are piecewise linear, which keeps the transient
    engine's right-hand side exact at every timestep. *)

type t =
  | Dc of float  (** constant value *)
  | Step of { t0 : float; v0 : float; v1 : float }
      (** ideal step from [v0] to [v1] at time [t0]; the value at
          exactly [t0] is still [v0], so a DC solve at the step time
          yields the pre-step operating point *)
  | Ramp of { t0 : float; t1 : float; v0 : float; v1 : float }
      (** linear transition between [t0] and [t1] *)
  | Pulse of {
      v0 : float;
      v1 : float;
      delay : float;
      rise : float;
      fall : float;
      width : float;
      period : float;
    }  (** SPICE PULSE source *)
  | Pwl of (float * float) list
      (** piecewise-linear (time, value) corner list; times must be
          strictly increasing *)

val value : t -> float -> float
(** [value w t] evaluates the waveform at time [t] (clamped to the end
    values outside the defined range; PULSE repeats with its period). *)

val settled : t -> float
(** The level a threshold delay settles toward: the DC level, [v1] of
    a step, ramp or PULSE (a PULSE's first plateau, since a periodic
    pulse never settles), and a PWL's last value. Step, ramp and PWL
    hold it for good after their last corner. *)

val validate : t -> (unit, string) result
(** Checks structural invariants (finite parameters, increasing PWL
    times, positive pulse period, non-negative ramp duration). *)
