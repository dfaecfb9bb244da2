(** The reference companion assembler (the general sort-merge the
    library ran before it compiled each system's pattern). *)

val companion :
  ?stamps:Spice.Transient.stamps ->
  Spice.Mna.t ->
  dt:float ->
  Numeric.Sparse.Csc.t * Numeric.Sparse.Csc.t
(** The iteration matrix G′ + hC′ and explicit side 2hC′ (h = 2/dt) of
    [sys] grown by [stamps], built by merging four sorted streams per
    column; exact zeros dropped.
    @raise Invalid_argument as [Spice.Transient.assemble]. *)
