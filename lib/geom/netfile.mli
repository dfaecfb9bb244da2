(** Plain-text net files, for exchanging pin placements between the
    command-line tools.

    Format: one pin per line as [x y] in µm, [#] comments and blank
    lines ignored; the first pin is the source n0. *)

val to_string : Net.t -> string

val write : string -> Net.t -> unit

val of_string : string -> (Net.t, string) result
(** Parse errors name the offending line; non-finite coordinates
    ([nan], [inf]) are errors. *)

val read : string -> (Net.t, string) result
