(** Experiment driver shared by the benchmark harness and the CLI.

    Reproduces the paper's protocol (Section 4): for each net size,
    [trials] nets with pins uniform in the layout region of the
    technology; every method's routing is evaluated with the *same*
    evaluation model (SPICE in the paper) and normalised to its
    baseline topology. *)

type config = {
  seed : int;
  trials : int;
  sizes : int list;  (** net sizes (pin counts); the paper uses 5/10/20/30 *)
  tech : Circuit.Technology.t;
  eval_model : Delay.Model.t;  (** model used to *report* delay *)
  search_model : Delay.Model.t;  (** oracle driving greedy searches *)
  jobs : int;
      (** worker domains for net fan-out and candidate scoring; 1
          (the default) runs the untouched sequential path. Table
          contents are identical for any value — only wall time
          changes. *)
}

val default : config
(** Seed 1994, 50 trials, sizes 5/10/20/30, Table 1 technology,
    fast-SPICE evaluation and search (the paper's setup, scaled for a
    laptop run). *)

val nets : config -> size:int -> Geom.Net.t array
(** The reproducible trial nets for one size. Independent of [trials]
    prefix-stability: growing [trials] keeps earlier nets unchanged. *)

val sample :
  config -> baseline:Routing.t -> routing:Routing.t -> Stats.sample
(** Evaluates both topologies under [eval_model] and returns the
    normalised sample. *)
