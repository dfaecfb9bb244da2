(* Incremental edit scoring for the greedy loops.

   A greedy round evaluates many one-wire edits of the same base
   routing: LDRG adds an absent edge (u,v), wire sizing widens an
   existing one. Each round is one [Delay.Model.prepare] of its base,
   inside one [incremental.prepare] span, and each edit is scored by
   [Delay.Model.score] with the wire it changes, the same scorer the
   plain oracle runs with no edit.

   Fallbacks and memo keys are as incremental.mli states; a fallback
   that fails too raises to the greedy loop's candidate rule. *)

let src =
  Logs.Src.create "nontree.incremental" ~doc:"Incremental candidate scoring"

module Log = (val Logs.src_log src : Logs.LOG)

let enabled_flag = Atomic.make true
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag
let hits = Obs.Counter.make "oracle.incremental_hits"
let fallbacks = Obs.Counter.make "oracle.incremental_fallbacks"

(* Fixed width, whatever the routing's size: a tag byte ('a' for an
   added wire, 'r' for a resized one), both endpoints as given, and for
   a resize the new width's bits. *)
let edit_key (w : Delay.Model.wire) =
  let added = Option.is_none w.was in
  let b = Bytes.create (if added then 17 else 25) in
  Bytes.set b 0 (if added then 'a' else 'r');
  Bytes.set_int64_le b 1 (Int64.of_int w.u);
  Bytes.set_int64_le b 9 (Int64.of_int w.v);
  if not added then Bytes.set_int64_le b 17 (Int64.bits_of_float w.width);
  Bytes.unsafe_to_string b

let apply r (w : Delay.Model.wire) =
  match w.was with
  | None -> Routing.add_edge r w.u w.v
  | Some _ -> Routing.set_width r w.u w.v w.width

type scorer = cutoff:float -> Delay.Model.wire -> float

let plain objective r ~cutoff:_ w = objective (apply r w)

let make_scorer ~model ~tech ~fallback r =
  let plain = plain fallback r in
  match model with
  | _ when not (Atomic.get enabled_flag) -> plain
  | Delay.Model.Elmore_tree
  | Delay.Model.Spice { Delay.Model.include_inductance = true; _ } ->
      (* Elmore needs trees (added wires never leave one); RLC wires
         are not rank-1 on G alone. Unsupported, not a failure. *)
      plain
  | _ -> (
      match
        Obs.span "incremental.prepare" (fun () ->
            Delay.Model.prepare model ~tech r)
      with
      | Error _ ->
          (* The base would not factor; the whole round takes the
             robust path. *)
          Obs.Counter.incr fallbacks;
          plain
      | Ok round ->
          (* The base is digested once, here on the calling domain: a
             score depends only on the base, the model, the technology
             and the edit, so a trial's key is this digest plus the
             edit's. Eager, not lazy: the scorer runs on worker domains,
             which must not force one shared suspension. *)
          let key =
            if Oracle.Cache.enabled () then
              Some (Oracle.Cache.round ~model ~tech r)
            else None
          in
          fun ~cutoff w ->
            (* A failed score raises out of the memo, which stores
               nothing. *)
            let compute () =
              match Delay.Model.score ~cutoff round (Some w) with
              | Ok s ->
                  Obs.Counter.incr hits;
                  s
              | Error e -> Nontree_error.raise_error e
            in
            (* An edit entry, never a plain one: an updated solve may
               differ from the plain oracle's in the last bits. *)
            match
              match key with
              | Some key ->
                  Oracle.Cache.memo_edit ~cutoff key (edit_key w) compute
              | None -> compute ()
            with
            | Spice.Engine.Exact ds -> Delay.Sinks.max_delay ds
            | Spice.Engine.Above b -> b
            | exception Nontree_error.Error e ->
                Obs.Counter.incr fallbacks;
                Log.info (fun f ->
                    f "incremental scoring fell back (%s)"
                      (Nontree_error.to_string e));
                plain ~cutoff w)
