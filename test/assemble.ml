(* The general sort-merge assembler of a companion, kept as the tests'
   reference for [Transient.assemble]: every column merges four sorted
   streams — the base G and C columns and the stamps' entries in that
   column, expanded and sorted stably by position — summing each entry
   as stamping G′ and C′ as triplets and combining them would. *)

module Csc = Numeric.Sparse.Csc
open Spice.Transient

(* Two-terminal stamps as matrix entries, the way [Mna.build] stamps a
   resistor or capacitor (the value at (i,i) and (j,j), its negation at
   (i,j) and (j,i), ground skipped), keyed col·size + row and sorted
   stably by key: entries at one position keep stamping order. *)
let expand ~size stamps =
  let keys = Array.make (4 * Array.length stamps) 0 in
  let vals = Array.make (4 * Array.length stamps) 0.0 in
  let len = ref 0 in
  let push r c v =
    let key = (c * size) + r and p = ref !len in
    while !p > 0 && keys.(!p - 1) > key do
      keys.(!p) <- keys.(!p - 1);
      vals.(!p) <- vals.(!p - 1);
      decr p
    done;
    keys.(!p) <- key;
    vals.(!p) <- v;
    incr len
  in
  Array.iter
    (fun { i; j; value } ->
      if i < -1 || i >= size || j < -1 || j >= size then
        invalid_arg "Assemble: stamp index out of range";
      if i >= 0 then push i i value;
      if j >= 0 then push j j value;
      if i >= 0 && j >= 0 then begin
        push i j (-.value);
        push j i (-.value)
      end)
    stamps;
  (keys, vals, !len)

(* One pass over the columns writes G' + h·C' and 2h·C'; see [assemble]
   for how each entry sums. *)
let combine (sys : Spice.Mna.t) stamps ~h =
  let s = 2.0 *. h in
  let n = sys.Spice.Mna.size in
  let nt = n + stamps.added in
  let g = sys.Spice.Mna.g_csc and c = sys.Spice.Mna.c_csc in
  let gk, gv, gn = expand ~size:nt stamps.g in
  let ck, cv, cn = expand ~size:nt stamps.c in
  let make cap =
    let cap = max 1 cap in
    (Array.make (nt + 1) 0, Array.make cap 0, Array.make cap 0.0)
  in
  let ((colptr, rowind, values) as lhs) =
    make (Csc.nnz g + Csc.nnz c + gn + cn)
  in
  let ((colptr', rowind', values') as rhs) = make (Csc.nnz c + cn) in
  let out = ref 0 and out' = ref 0 in
  let sg = ref 0 and sc = ref 0 in
  let grow = g.Csc.rowind and gval = g.Csc.values in
  let crow = c.Csc.rowind and cval = c.Csc.values in
  for j = 0 to nt - 1 do
    colptr.(j) <- !out;
    colptr'.(j) <- !out';
    (* Cursors: base G and C column j, then its stamp entries, whose
       keys run from j·nt (row 0) to below (j+1)·nt. *)
    let p = ref (if j < n then g.Csc.colptr.(j) else 0) in
    let pe = if j < n then g.Csc.colptr.(j + 1) else 0 in
    let q = ref (if j < n then c.Csc.colptr.(j) else 0) in
    let qe = if j < n then c.Csc.colptr.(j + 1) else 0 in
    let col = j * nt in
    let ge = ref !sg and ce = ref !sc in
    while !ge < gn && gk.(!ge) < col + nt do incr ge done;
    while !ce < cn && ck.(!ce) < col + nt do incr ce done;
    while !p < pe || !q < qe || !sg < !ge || !sc < !ce do
      let r = if !p < pe then grow.(!p) else max_int in
      let r = if !sg < !ge then min r (gk.(!sg) - col) else r in
      let r = if !q < qe then min r crow.(!q) else r in
      let r = if !sc < !ce then min r (ck.(!sc) - col) else r in
      let has_g = ref false and gx = ref 0.0 in
      if !p < pe && grow.(!p) = r then begin
        has_g := true;
        gx := gval.(!p);
        incr p
      end;
      while !sg < !ge && gk.(!sg) = col + r do
        gx := if !has_g then !gx +. gv.(!sg) else gv.(!sg);
        has_g := true;
        incr sg
      done;
      let has_c = ref false and cx = ref 0.0 in
      if !q < qe && crow.(!q) = r then begin
        has_c := true;
        cx := cval.(!q);
        incr q
      end;
      while !sc < !ce && ck.(!sc) = col + r do
        cx := if !has_c then !cx +. cv.(!sc) else cv.(!sc);
        has_c := true;
        incr sc
      done;
      let v =
        if !has_g && !has_c then !gx +. (h *. !cx)
        else if !has_g then !gx
        else h *. !cx
      and v' = if !has_c then s *. !cx else 0.0 in
      if v <> 0.0 then begin
        rowind.(!out) <- r;
        values.(!out) <- v;
        incr out
      end;
      if v' <> 0.0 then begin
        rowind'.(!out') <- r;
        values'.(!out') <- v';
        incr out'
      end
    done
  done;
  colptr.(nt) <- !out;
  colptr'.(nt) <- !out';
  (* Each entry once, in column order: the triplets sum nothing. *)
  let csc (colptr, rowind, values) =
    let t = Numeric.Sparse.Triplets.create ~capacity:colptr.(nt) () in
    for j = 0 to nt - 1 do
      for p = colptr.(j) to colptr.(j + 1) - 1 do
        Numeric.Sparse.Triplets.add t rowind.(p) j values.(p)
      done
    done;
    Csc.of_triplets ~n:nt t
  in
  (csc lhs, csc rhs)


let companion ?(stamps = { added = 0; g = [||]; c = [||] }) (sys : Spice.Mna.t)
    ~dt =
  if dt <= 0.0 then invalid_arg "Assemble: dt must be positive";
  if stamps.added < 0 then invalid_arg "Assemble: negative appended unknowns";
  combine sys stamps ~h:(2.0 /. dt)
