(** Table statistics in the paper's reporting format.

    Every table reports, per net size, values normalised to a baseline
    topology: average delay and cost over *all* trials ("All Cases"),
    the percentage of trials where the method beat the baseline's delay
    ("Percent Winners"), and the averages restricted to those winning
    trials ("Winners Only"). *)

type sample = {
  delay_ratio : float;  (** method delay / baseline delay *)
  cost_ratio : float;  (** method cost / baseline cost *)
}

type row = {
  n : int;  (** number of trials aggregated *)
  all_delay : float;
  all_cost : float;
  pct_winners : float;  (** 0..100 *)
  win_delay : float option;  (** [None] when there are no winners (NA) *)
  win_cost : float option;
}

val winner : sample -> bool
(** A trial wins when its delay ratio is below 1 − 1e-9. *)

val summarize : sample list -> row
(** @raise Invalid_argument on an empty list. *)
