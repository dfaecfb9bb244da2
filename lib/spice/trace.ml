type t = {
  times : float array;
  names : string array;
  data : float array array;
}

let signal t name =
  let rec find i =
    if i >= Array.length t.names then raise Not_found
    else if t.names.(i) = name then t.data.(i)
    else find (i + 1)
  in
  find 0

let length t = Array.length t.times

let to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "time";
  Array.iter (fun n -> Buffer.add_string buf ("," ^ n)) t.names;
  Buffer.add_char buf '\n';
  for s = 0 to length t - 1 do
    Buffer.add_string buf (Printf.sprintf "%.6e" t.times.(s));
    Array.iter
      (fun col -> Buffer.add_string buf (Printf.sprintf ",%.6e" col.(s)))
      t.data;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let write_csv path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_csv t))

let ascii_plot t name =
  let width = 72 and height = 16 in
  let v = signal t name in
  let n = Array.length v in
  if n = 0 then "(empty trace)"
  else begin
    let vmin = Array.fold_left Float.min v.(0) v in
    let vmax = Array.fold_left Float.max v.(0) v in
    let span = if vmax = vmin then 1.0 else vmax -. vmin in
    let grid = Array.make_matrix height width ' ' in
    for col = 0 to width - 1 do
      let s = col * (n - 1) / Int.max 1 (width - 1) in
      let frac = (v.(s) -. vmin) /. span in
      let row = height - 1 - int_of_float (frac *. float_of_int (height - 1)) in
      let row = Int.max 0 (Int.min (height - 1) row) in
      grid.(row).(col) <- '*'
    done;
    let buf = Buffer.create ((width + 8) * height) in
    Buffer.add_string buf
      (Printf.sprintf "%s: [%g, %g] over [%g, %g]s\n" name vmin vmax
         t.times.(0)
         t.times.(n - 1));
    Array.iter
      (fun row ->
        Buffer.add_string buf (String.init width (fun i -> row.(i)));
        Buffer.add_char buf '\n')
      grid;
    Buffer.contents buf
  end
