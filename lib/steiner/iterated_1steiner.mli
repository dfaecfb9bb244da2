(** The Iterated 1-Steiner heuristic of Kahng and Robins.

    Repeatedly find the single Hanan candidate whose addition to the
    point set most reduces MST cost; stop when no candidate helps.
    After convergence, degree-1 Steiner points are deleted and degree-2
    Steiner points are spliced out (the triangle inequality guarantees
    splicing never increases cost). This is the Steiner engine the
    paper's SLDRG algorithm starts from (Figure 6, step 1). *)

val construct : Geom.Net.t -> Routing.t
(** [construct net] is a Steiner routing tree over the net: terminals
    keep their indices (0 = source), chosen Steiner points follow. It
    adds at most n−2 Steiner points, the most a rectilinear Steiner
    minimal tree can use.
    Candidate gains under 1e-6 µm are treated as float noise and
    rejected. *)
