(** Every paper artefact (see DESIGN.md experiment index): Tables 1-7,
    Figures 1, 2, 3 and 5 and the Section 5 extensions, each defined
    once in {!artefacts} with its title, baseline and output layout.
    [bin/tables.exe] prints one of them; [bench/main.exe] prints them
    section by section, the same bytes.

    Each run takes an {!Nontree.Experiment.config} so trial counts,
    sizes and oracle fidelity can be scaled from the command line. *)

type config = Nontree.Experiment.config

val protect_net : what:string -> (unit -> 'a) -> 'a option
(** Run one net's worth of work; a {!Nontree_error.Error} escaping every
    retry and fallback drops that net (logged, counted) instead of
    aborting the whole table. *)

val robustness_summary : unit -> string option
(** One-line robustness counter summary for the run so far, or [None]
    when nothing noteworthy (no faults, retries, fallbacks or drops)
    happened. *)

val table2 : config -> Table.iter_row list
(** LDRG vs MST, with per-iteration rows (Table 4, H1, has the same
    shape): iteration k is the effect of the k-th added wire relative
    to the routing after k−1 additions; nets whose greedy loop stopped
    earlier contribute a 1.0 sample (and a row is NA when no net
    reached that iteration). *)

val table5 : config -> Table.iter_row list * Table.iter_row list
(** (H2 rows, H3 rows), both vs MST. H2/H3 apply their single edge
    unconditionally, so all-cases delay can exceed 1. *)

val table6 : config -> Table.iter_row list
(** ERT vs MST. *)

(** {1 Figures} *)

type figure = {
  id : string;
  description : string;
  net_size : int;
  base_delay : float;  (** seconds, SPICE *)
  base_cost : float;
  final_delay : float;
  final_cost : float;
  stages : (float * float) list;
      (** per-greedy-stage (delay, cost) after each added edge *)
  before : Routing.t;
  after : Routing.t;
  added : (int * int) list;
}

val figure2 : config -> figure
(** A 10-pin net where one extra wire gives a large SPICE delay
    reduction at a small wirelength penalty (paper: −33.3 % delay,
    +21.5 % wire); found by deterministic search over the config's net
    stream. *)

val render_figure : figure -> string

exception Svg_unwritable of string
(** An SVG or its directory could not be written; the file system's
    message. *)

val ensure_svg_dir : string -> unit
(** Creates the directory if missing.

    @raise Svg_unwritable if it cannot, or the path is not a
    directory. *)

val save_figure_svgs : dir:string -> figure -> string list
(** Writes before/after SVG renderings; returns the paths written.

    @raise Svg_unwritable if one cannot be written. *)

(** {1 The artefacts} *)

type selector =
  | Table of int  (** [--table N] *)
  | Figure of int  (** [--figure N] *)
  | Ext of string  (** [--ext NAME] *)

type artefact = {
  selector : selector;
  section : string;
      (** the bench section it belongs to ([--only]): ["1"]–["7"],
          ["figures"] or ["ext"] *)
  render : config -> svg_dir:string -> string;
      (** runs the experiment and returns its report: a table's title,
          baseline and rows (5a then 5b for Table 5); a figure's text
          and one [svg: PATH] line per SVG it wrote into [svg_dir]
          ({!ensure_svg_dir}, before the figure runs; else
          {!Svg_unwritable}); an extension's report *)
}

val artefacts : artefact list
(** Tables 1–7, Figures 1, 2, 3 and 5, then the extensions csorg,
    wsorg, oracle, rlc, trees, budget, prune and sensitivity, each
    once, in bench order. *)

val sections : string list
(** The distinct sections of {!artefacts}, in order. *)

val clamp_jobs : int -> (int, string) result
(** The worker-domain count to run a [--jobs] request with: an error
    below 1; above the core count, the core count, with a warning
    logged. *)
