type iter_row = {
  label : string;
  size : int;
  row : Nontree.Stats.row option;
}

let opt_cell = function
  | None -> "  NA"
  | Some x -> Printf.sprintf "%4.2f" x

let row_cells = function
  | None -> "  NA   NA    NA    NA   NA"
  | Some (r : Nontree.Stats.row) ->
      Printf.sprintf "%4.2f %4.2f  %4.0f  %s %s" r.Nontree.Stats.all_delay
        r.Nontree.Stats.all_cost r.Nontree.Stats.pct_winners
        (opt_cell r.Nontree.Stats.win_delay)
        (opt_cell r.Nontree.Stats.win_cost)

(* Group rows by label at the label's *first occurrence*, keeping row
   order within each group. Merging only adjacent runs would render a
   duplicate header block whenever rows for one stage arrive
   non-contiguously; for already-contiguous input the output is
   identical to the old adjacent-run fold. *)
let group_by_label rows =
  let order = ref [] in
  let groups = Hashtbl.create 8 in
  List.iter
    (fun r ->
      match Hashtbl.find_opt groups r.label with
      | Some group -> group := r :: !group
      | None ->
          Hashtbl.add groups r.label (ref [ r ]);
          order := r.label :: !order)
    rows;
  List.rev_map
    (fun label -> (label, List.rev !(Hashtbl.find groups label)))
    !order

let render ~title ~baseline rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "%s\n" title);
  Buffer.add_string buf
    (Printf.sprintf "(all values normalised to %s)\n" baseline);
  Buffer.add_string buf
    "                      |    All Cases    | Pct  |  Winners Only\n";
  Buffer.add_string buf
    "                 size | Delay Cost      | Wins | Delay Cost\n";
  Buffer.add_string buf
    "  --------------------+-----------------+------+---------------\n";
  List.iter
    (fun (label, group) ->
      List.iteri
        (fun i r ->
          let tag = if i = 0 then Printf.sprintf "%-15s" label else String.make 15 ' ' in
          Buffer.add_string buf
            (Printf.sprintf "  %s %3d |  %s\n" tag r.size (row_cells r.row)))
        group)
    (group_by_label rows);
  Buffer.contents buf
