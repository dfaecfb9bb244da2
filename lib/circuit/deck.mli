(** SPICE deck (circuit file) input/output.

    The dialect is classic SPICE2: a title line, one element per card,
    [*] comments, [+] continuations, engineering suffixes
    (f p n u m k meg g t), and a final [.end]. Two waveform spellings
    are local extensions so that every {!Waveform.t} round-trips
    exactly: [STEP(t0 v0 v1)] and [RAMP(t0 t1 v0 v1)]; standard
    [DC], [PULSE(...)] and [PWL(...)] are also read and written. *)

val number_to_string : float -> string
(** Engineering-notation rendering, e.g. [1.53e-14] as ["15.3f"]. *)

val parse_number : string -> (float, string) result
(** Parses ["4.7k"], ["15.3f"], ["3meg"], ["1e-9"], ...; a value that
    is not finite (["nan"], ["inf"], ["1e999"]) is an error. *)

val to_string :
  ?title:string -> ?directive_cards:string list -> Netlist.t -> string
(** Renders a netlist as a deck; [directive_cards] (e.g. from
    {!tran_card} and {!probe_card}) are written verbatim before
    [.end]. *)

val tran_card : step:float -> stop:float -> string
(** A [.tran tstep tstop] card. *)

val probe_card : string list -> string
(** A [.probe v(n1) v(n2) ...] card. *)

val write_file :
  ?title:string -> ?directive_cards:string list -> string -> Netlist.t -> unit

val of_string : string -> (Netlist.t, string) result
(** Parses a deck; on failure the error names the offending line.
    Dot-cards are accepted and ignored; use {!of_string_full} to
    retrieve the [.tran] and [.probe] cards. Other dot-cards ([.ac],
    [.options], ...) are ignored by both. *)

val read_file : string -> (Netlist.t, string) result

(** {1 Analysis directives} *)

type analysis = Tran of { step : float; stop : float }  (** [.tran tstep tstop] *)

type directives = {
  analyses : analysis list;  (** in deck order *)
  probes : string list;
      (** node names from [.probe]/[.print] cards; [v(node)] wrappers
          are unwrapped *)
}

val of_string_full : string -> (Netlist.t * directives, string) result
(** Like {!of_string} but also returns the recognised analysis and
    probe directives. A malformed recognised directive (e.g. [.tran]
    with a bad number) is an error; unrecognised dot-cards are still
    ignored. *)

val read_file_full : string -> (Netlist.t * directives, string) result
