(** Waveform measurements.

    The paper's figure of merit is the 50 % threshold delay: the time
    at which a sink's voltage first reaches half its final value after
    the driver switches. These helpers operate on sampled waveforms
    with linear interpolation between samples. *)

val first_crossing :
  times:float array -> values:float array -> level:float -> float option
(** First time the waveform reaches [level] from below, linearly
    interpolated; [None] when it never does. A sample exactly at
    [level] counts (including the first one). A waveform that {e
    starts above} [level] reports no crossing until it first dips
    below and rises through it again — never the spurious
    [times.(0)]. *)

val final_value : values:float array -> float
(** Last sample. @raise Invalid_argument on an empty waveform. *)

val rise_time :
  times:float array -> values:float array -> vfinal:float -> float option
(** 10 %–90 % rise time, when both crossings exist. *)

val overshoot : values:float array -> vfinal:float -> float
(** max(0, peak − vfinal): nonzero only in underdamped RLC responses.
    @raise Invalid_argument on an empty waveform (like
    {!final_value}), instead of a silent 0. *)
