(** Simulation traces: sampled node-voltage waveforms. *)

type t = {
  times : float array;
  names : string array;  (** probe names, parallel to [data] *)
  data : float array array;  (** [data.(p).(s)] = probe p at sample s *)
}

val signal : t -> string -> float array
(** @raise Not_found for an unknown probe name. *)

val length : t -> int

val to_csv : t -> string
(** Header row [time,name1,...]; one row per sample. *)

val write_csv : string -> t -> unit

val ascii_plot : t -> string -> string
(** Quick terminal plot of one signal, 72 columns by 16 rows, for the
    examples and debugging.

    @raise Not_found for an unknown probe name. *)
