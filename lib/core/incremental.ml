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

let max_sink_delay ds =
  List.fold_left (fun acc (_, d) -> Float.max acc d) 0.0 ds

type edit = Add of int * int | Resize of (int * int) * float

(* Added wires carry width 1.0 (Routing.add_edge) and Manhattan length;
   a resized wire is named in canonical order (u < v), the orientation
   of its lowered chain. *)
let wire r = function
  | Add (u, v) ->
      let length =
        Geom.Point.manhattan (Routing.point r u) (Routing.point r v)
      in
      { Delay.Model.u; v; length; width = 1.0; was = None }
  | Resize ((a, b), width) ->
      let u = Int.min a b and v = Int.max a b in
      { Delay.Model.u; v; length = Routing.edge_length r u v; width;
        was = Some (Routing.width r u v) }

(* Fixed width, whatever the routing's size: a tag byte, both
   endpoints as given, and for a resize the new width's bits. *)
let edit_key edit =
  let b = Bytes.create (match edit with Add _ -> 17 | Resize _ -> 25) in
  let endpoints tag u v =
    Bytes.set b 0 tag;
    Bytes.set_int64_le b 1 (Int64.of_int u);
    Bytes.set_int64_le b 9 (Int64.of_int v)
  in
  (match edit with
  | Add (u, v) -> endpoints 'a' u v
  | Resize ((u, v), width) ->
      endpoints 'r' u v;
      Bytes.set_int64_le b 17 (Int64.bits_of_float width));
  Bytes.unsafe_to_string b

let apply r = function
  | Add (u, v) -> Routing.add_edge r u v
  | Resize ((u, v), width) -> Routing.set_width r u v width

type scorer = Exact of (edit -> float) | Cut of (cutoff:float -> edit -> float)

let make_scorer ~model ~tech ~fallback r =
  match model with
  | _ when not (Atomic.get enabled_flag) -> None
  | Delay.Model.Elmore_tree
  | Delay.Model.Spice { Delay.Model.include_inductance = true; _ } ->
      (* Elmore needs trees (added wires never leave one); RLC wires
         are not rank-1 on G alone. Unsupported, not a failure. *)
      None
  | _ -> (
      match
        Obs.span "incremental.prepare" (fun () ->
            Delay.Model.prepare model ~tech r)
      with
      | Error _ ->
          (* The base would not factor; the whole round takes the
             robust path. *)
          Obs.Counter.incr fallbacks;
          None
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
          let score ~cutoff edit =
            (* A failed score raises out of the memo, which stores
               nothing. *)
            let compute () =
              match Delay.Model.score ~cutoff round (Some (wire r edit)) with
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
                  Oracle.Cache.memo_edit ~cutoff key (edit_key edit) compute
              | None -> compute ()
            with
            | Spice.Engine.Exact ds -> max_sink_delay ds
            | Spice.Engine.Above b -> b
            | exception Nontree_error.Error e ->
                Obs.Counter.incr fallbacks;
                Log.info (fun f ->
                    f "incremental scoring fell back (%s)"
                      (Nontree_error.to_string e));
                fallback (apply r edit)
          in
          (* A moment score costs too little for a cutoff to save
             anything. *)
          Some
            (match model with
            | Delay.Model.Spice _ -> Cut score
            | _ -> Exact (score ~cutoff:Float.infinity)))
