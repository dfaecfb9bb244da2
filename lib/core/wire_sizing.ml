let wire_area r =
  List.fold_left
    (fun acc ((u, v), w) -> acc +. (Routing.edge_length r u v *. w))
    0.0 (Routing.widths r)

let next_width widths current =
  List.find_opt (fun w -> w > current +. 1e-12) widths

let size_greedy ?(widths = [ 1.0; 2.0; 3.0 ]) ?(max_changes = max_int) ~model
    ~tech r =
  (match widths with
  | first :: _ when abs_float (first -. 1.0) < 1e-12 ->
      let rec increasing = function
        | a :: (b :: _ as rest) ->
            if b > a then increasing rest
            else invalid_arg "Wire_sizing: widths must be strictly increasing"
        | _ -> ()
      in
      increasing widths
  | _ -> invalid_arg "Wire_sizing: widths must start at 1");
  let delay_of = Oracle.objective ~model ~tech in
  let rec loop current current_delay changes count =
    if count >= max_changes then (current, changes)
    else begin
      (* One round, one scorer, as in LDRG: [current] is factored once
         and each width trial is a resize edit of it. [None] means this
         round runs on the plain objective. *)
      let scorer =
        Incremental.make_scorer ~model ~tech ~fallback:delay_of current
      in
      let score (u, v) w' =
        match scorer with
        | Some score -> score (Incremental.Resize ((u, v), w'))
        | None -> delay_of (Routing.set_width current u v w')
      in
      let best =
        List.fold_left
          (fun best ((u, v), w) ->
            match next_width widths w with
            | None -> best
            | Some w' ->
                let d = score (u, v) w' in
                (match best with
                | Some (_, _, d') when d' <= d -> best
                | _ -> Some ((u, v), w', d)))
          None (Routing.widths current)
      in
      match best with
      | Some (((u, v) as edge), w', d)
        when d < current_delay *. (1.0 -. 1e-9) ->
          (* The winner's routing, built once. *)
          loop (Routing.set_width current u v w') d ((edge, w') :: changes)
            (count + 1)
      | _ -> (current, changes)
    end
  in
  let final, changes = loop r (delay_of r) [] 0 in
  (final, List.rev changes)

let merge_parallel_delay ~model ~tech r (u, v) =
  let current = Routing.width r u v in
  Oracle.Cache.max_delay ~model ~tech
    (Routing.set_width r u v (2.0 *. current))
