type 'a slot = { mutable busy : bool; value : 'a }
type 'a t = { key : 'a slot Domain.DLS.key; make : unit -> 'a }

let make make =
  { key = Domain.DLS.new_key (fun () -> { busy = false; value = make () });
    make }

let use t f =
  let s = Domain.DLS.get t.key in
  if s.busy then f (t.make ())
  else begin
    s.busy <- true;
    match f s.value with
    | v ->
        s.busy <- false;
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        s.busy <- false;
        Printexc.raise_with_backtrace e bt
  end

let floats a n =
  if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) 0.0

let ints a n =
  if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) 0

let exact_floats a n = if Array.length a = n then a else Array.make n 0.0
