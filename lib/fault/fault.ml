type kind = Singular_stamp | Nan_value | Never_settles

type mode =
  | Off
  | Probabilistic of { rng : Rng.t; p : float }  (* [p] per kind *)
  | Scripted of kind option list ref

(* The schedule state (RNG position, scripted queue) is shared by every
   domain of the Pool evaluation layer; the mutex keeps draws atomic so
   a parallel run consumes the schedule without losing or duplicating
   entries. Mode changes happen between runs, on the main domain. *)
let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let mode = ref Off

let disable () = with_lock (fun () -> mode := Off)

let enable ~rate ~seed =
  if not (rate >= 0.0 && rate <= 1.0) then
    invalid_arg "Fault.enable: rate must be in [0, 1]";
  with_lock (fun () ->
      mode := Probabilistic { rng = Rng.create seed; p = rate /. 3.0 })

let script kinds = with_lock (fun () -> mode := Scripted (ref kinds))

let active () = with_lock (fun () -> !mode <> Off)

let record = function
  | Some _ as k ->
      Nontree_error.Counters.incr_faults_injected ();
      k
  | None -> None

let draw ~stage:_ =
  (* Unsynchronised fast path: [mode] is only written between runs, so
     observing [Off] without the lock is safe and keeps the hot path
     lock-free when injection is disabled. *)
  match !mode with
  | Off -> None
  | Probabilistic _ | Scripted _ ->
      record
        (with_lock (fun () ->
             match !mode with
             | Off -> None
             | Probabilistic { rng; p } ->
                 let u = Rng.float rng 1.0 in
                 if u < p then Some Singular_stamp
                 else if u < p +. p then Some Nan_value
                 else if u < p +. p +. p then Some Never_settles
                 else None
             | Scripted queue -> (
                 match !queue with
                 | [] -> None
                 | k :: rest ->
                     queue := rest;
                     k)))
