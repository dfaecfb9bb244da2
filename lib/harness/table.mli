(** Rendering experiment results in the paper's table format. *)

type iter_row = {
  label : string;  (** e.g. "Iteration One" *)
  size : int;
  row : Nontree.Stats.row option;  (** [None] renders the NA row *)
}

val render :
  title:string -> baseline:string -> iter_row list -> string
(** A text table with the paper's columns:
    net size | All-cases Delay/Cost | % Winners | Winners-only Delay/Cost,
    one block per distinct label, noting the normalisation baseline. *)
