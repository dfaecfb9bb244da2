type step = {
  edge : int * int;
  objective_before : float;
  objective_after : float;
  cost_before : float;
  cost_after : float;
}

type trace = {
  initial : Routing.t;
  final : Routing.t;
  steps : step list;
  evaluations : int;
}

(* Candidates scored per round of [search] (LDRG, SLDRG, budgeted LDRG,
   CSORG, wire sizing): the fan-out the parallel pool chews through. *)
let candidates_per_iteration =
  Obs.Histogram.make "ldrg.candidates"
    ~buckets:[| 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 200.0; 500.0 |]

(* The relative improvement a move must make, against float noise. *)
let min_improvement = 1e-9

(* Lower an atomic running minimum to [x]. *)
let rec lower bound x =
  let cur = Atomic.get bound in
  if x < cur && not (Atomic.compare_and_set bound cur x) then lower bound x

let search ?(pool = Pool.sequential) ?(max_moves = max_int) ?scorer ~moves
    ~objective initial =
  let scorer = Option.value scorer ~default:(Incremental.plain objective) in
  let evaluations = Atomic.make 0 in
  let rec loop current current_obj taken count =
    if count >= max_moves then (current, taken)
    else begin
      let wires = moves current in
      if Obs.enabled () then
        Obs.Histogram.observe candidates_per_iteration
          (float_of_int (List.length wires));
      (* One round, one scorer: the incremental path factors [current]
         once here and each candidate is a one-conductance update. *)
      let score = scorer current in
      (* τ′: no candidate scoring above it can win the round, as it
         neither makes the improvement nor beats (or ties) a score
         already in. A cut candidate's bound exceeds the τ′ it started
         under, so lowering τ′ by it is a no-op, and the winner is never
         cut: its score and the trace are the uncut loop's under any
         schedule. *)
      let bound = Atomic.make (current_obj *. (1.0 -. min_improvement)) in
      (* The failure rule, on either path: a failed candidate is dropped
         (logged and counted by [Oracle.candidate]) and never selected. *)
      let eval_candidate w =
        Atomic.incr evaluations;
        match
          Oracle.candidate (fun () -> score ~cutoff:(Atomic.get bound) w)
        with
        | Some s ->
            lower bound s;
            s
        | None -> Float.infinity
      in
      (* Candidates are scored independently (in parallel under [pool]);
         the fold then keeps the minimum, the *earliest* candidate on
         ties, so the winner (and hence the whole trace) is the
         sequential fold's for any worker count. *)
      let scored =
        Obs.span "ldrg.iteration" (fun () ->
            Pool.map pool (fun w -> (w, eval_candidate w)) wires)
      in
      let best =
        List.fold_left
          (fun best ((_, obj) as cand) ->
            match best with
            | Some (_, obj') when obj' <= obj -> best
            | _ -> Some cand)
          None scored
      in
      match best with
      | Some ((w : Delay.Model.wire), obj)
        when obj < current_obj *. (1.0 -. min_improvement) ->
          (* The winner's routing, built once. *)
          let trial = Incremental.apply current w in
          let step =
            { edge = (w.u, w.v);
              objective_before = current_obj;
              objective_after = obj;
              cost_before = Routing.cost current;
              cost_after = Routing.cost trial }
          in
          loop trial obj ((w, step) :: taken) (count + 1)
      | _ -> (current, taken)
    end
  in
  (* The baseline is evaluated directly: its typed error propagates. *)
  Atomic.incr evaluations;
  let final, taken = loop initial (objective initial) [] 0 in
  let wires, steps = List.split (List.rev taken) in
  ({ initial; final; steps; evaluations = Atomic.get evaluations }, wires)

let search_delay ?pool ?max_moves ~moves ~model ~tech initial =
  let objective = Oracle.Cache.max_delay ~model ~tech in
  search ?pool ?max_moves ~moves
    ~scorer:(Incremental.make_scorer ~model ~tech ~fallback:objective)
    ~objective initial

let adds candidates r =
  List.map
    (fun (u, v) ->
      let length =
        Geom.Point.manhattan (Routing.point r u) (Routing.point r v)
      in
      { Delay.Model.u; v; length; width = 1.0; was = None })
    (candidates r)

let run_objective ?pool ?max_edges ?(candidates = Routing.candidate_edges)
    ~objective initial =
  fst (search ?pool ?max_moves:max_edges ~moves:(adds candidates) ~objective
         initial)

let run ?pool ?max_edges ?(candidates = Routing.candidate_edges) ~model ~tech
    initial =
  fst (search_delay ?pool ?max_moves:max_edges ~moves:(adds candidates) ~model
         ~tech initial)

let run_budgeted ?pool ?max_edges ~max_cost_ratio ~model ~tech initial =
  (* Not [< 1.0]: nan fails every comparison, and a nan budget would
     filter out every candidate of a round it had prepared. *)
  if not (max_cost_ratio >= 1.0) then
    invalid_arg "Ldrg.run_budgeted: max_cost_ratio not >= 1";
  let budget = max_cost_ratio *. Routing.cost initial in
  let candidates r =
    let slack = budget -. Routing.cost r in
    List.filter
      (fun (u, v) ->
        Geom.Point.manhattan (Routing.point r u) (Routing.point r v) <= slack)
      (Routing.candidate_edges r)
  in
  run ?pool ?max_edges ~candidates ~model ~tech initial

let routing_after trace k =
  let rec apply r steps k =
    match (steps, k) with
    | _, 0 | [], _ -> r
    | step :: rest, k ->
        let u, v = step.edge in
        apply (Routing.add_edge r u v) rest (k - 1)
  in
  apply trace.initial trace.steps k
