(** Routing evaluation: the (delay, cost) pair every table reports. *)

type t = {
  delay : float;  (** max source→sink delay under the chosen model, s *)
  cost : float;  (** total wirelength, µm *)
}

val measure :
  model:Delay.Model.t -> tech:Circuit.Technology.t -> Routing.t -> t
(** Robust measurement: retries and model fallback are applied before
    giving up. Raises [Nontree_error.Error] only when every fallback
    fails. *)

val ratio : t -> baseline:t -> t
(** Element-wise normalisation: the paper reports every number relative
    to the corresponding baseline topology (MST, Steiner tree or ERT). *)
