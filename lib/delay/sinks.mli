val max_delay : (int * float) list -> float
(** The largest delay of a (sink, delay) list, [0.] for an empty one:
    the objective t(G) = max over sinks, folded in list order. Every
    oracle's max-sink-delay is this one fold, so they agree bit for
    bit. *)
