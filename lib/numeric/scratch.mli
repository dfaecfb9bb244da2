(** Per-domain scratch buffers, lent out for the span of one callback.

    A hot loop that would allocate the same arrays on every call (a
    candidate's factor, its time-step state) takes them from its
    domain's buffer instead. {!use} lends the buffer to a callback, so
    nothing that reads it outlives the call; a nested {!use} of the
    same buffer on the same domain gets a fresh one instead, so
    re-entry is safe, only slower. *)

type 'a t
(** One buffer of type ['a] per domain. *)

val make : (unit -> 'a) -> 'a t
(** [make f]: each domain's buffer is [f ()], built on its first
    {!use} there. *)

val use : 'a t -> ('a -> 'b) -> 'b
(** [use t f] is [f b], [b] the calling domain's buffer, or a fresh
    [f ()] of {!make} while that one is lent to an enclosing [use]. The
    buffer is free again when [f] returns or raises. *)

val floats : float array -> int -> float array
(** [floats a n] is [a] when it holds at least [n] entries, else a
    fresh zeroed array of at least [n] (twice [a]'s length when that is
    more), for a buffer field to keep. *)

val ints : int array -> int -> int array
(** {!floats} for ints. *)

val exact_floats : float array -> int -> float array
(** [a] when it holds exactly [n] entries, else a fresh zeroed array of
    [n]: for arrays a callee checks by length. *)
