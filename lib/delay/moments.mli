(** The [Two_pole] oracle's sink delays under the name the perfbench
    layer replay times as [delay.moments_us]. Nothing else calls it:
    delete it together with that call in the next change to the
    benchmark. *)

val two_pole_delay :
  tech:Circuit.Technology.t -> Routing.t -> (int * float) list
(** {!Model.sink_delays} [Two_pole].

    @raise Nontree_error.Error on any operational failure. *)
