let to_string net =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "# nontree net file: x y per pin (um); first pin is the source\n";
  Array.iter
    (fun (p : Point.t) ->
      Buffer.add_string buf (Printf.sprintf "%.6g %.6g\n" p.Point.x p.Point.y))
    (Net.pins net);
  Buffer.contents buf

let write path net =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string net))

let of_string text =
  let lines = String.split_on_char '\n' text in
  let rec parse lineno acc = function
    | [] -> (
        match List.rev acc with
        | [] | [ _ ] -> Error "net file needs at least two pins"
        | pins -> (
            try Ok (Net.of_list pins)
            with Invalid_argument m -> Error m))
    | line :: rest ->
        let trimmed = String.trim line in
        if trimmed = "" || trimmed.[0] = '#' then parse (lineno + 1) acc rest
        else begin
          match
            String.split_on_char ' ' trimmed
            |> List.filter (fun s -> s <> "")
            |> List.map float_of_string_opt
          with
          | [ Some x; Some y ] when Float.is_finite x && Float.is_finite y ->
              parse (lineno + 1) (Point.make x y :: acc) rest
          | [ Some _; Some _ ] ->
              Error (Printf.sprintf "line %d: non-finite coordinate" lineno)
          | _ -> Error (Printf.sprintf "line %d: expected 'x y'" lineno)
        end
  in
  parse 1 [] lines

let read path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      of_string (really_input_string ic len))
