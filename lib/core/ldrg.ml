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

(* Candidate edges scored per greedy iteration, across every algorithm
   that funnels through [run_objective] (LDRG, SLDRG, budgeted LDRG,
   CSORG): the fan-out the parallel pool has to chew through. *)
let candidates_per_iteration =
  Obs.Histogram.make "ldrg.candidates"
    ~buckets:[| 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 200.0; 500.0 |]

(* The relative improvement an addition must achieve to be taken,
   guarding against float noise (as in [Wire_sizing]). *)
let min_improvement = 1e-9

let run_objective ?(pool = Pool.sequential) ?(max_edges = max_int)
    ?(candidates = Routing.candidate_edges)
    ?(scorer = fun _ -> None) ~objective initial =
  let evaluations = Atomic.make 0 in
  let eval r =
    Atomic.incr evaluations;
    objective r
  in
  let rec loop current current_obj steps added =
    if added >= max_edges then (current, steps)
    else begin
      (* Candidates of one iteration are scored independently (in
         parallel under [pool]); the fold below then selects the
         minimum keeping the *earliest* candidate on ties, so the
         winner — and hence the whole trace — is the one the original
         sequential fold picked, for any worker count. *)
      let cands = candidates current in
      if Obs.enabled () then
        Obs.Histogram.observe candidates_per_iteration
          (float_of_int (List.length cands));
      (* One round, one scorer: the incremental path factors [current]
         once here and each candidate below is a rank-1 update. [None]
         means this round runs on the plain objective. *)
      let edge_score = scorer current in
      (* A trial routing is built only where it is read: by the plain
         objective, or once for the round's winner below. *)
      let eval_candidate (u, v) =
        match edge_score with
        | Some score ->
            Atomic.incr evaluations;
            score (Incremental.Add (u, v))
        | None -> eval (Routing.add_edge current u v)
      in
      let scored =
        Obs.span "ldrg.iteration" (fun () ->
            Pool.map pool (fun edge -> (edge, eval_candidate edge)) cands)
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
      | Some (((u, v) as edge), obj)
        when obj < current_obj *. (1.0 -. min_improvement) ->
          let trial = Routing.add_edge current u v in
          let step =
            { edge;
              objective_before = current_obj;
              objective_after = obj;
              cost_before = Routing.cost current;
              cost_after = Routing.cost trial }
          in
          loop trial obj (step :: steps) (added + 1)
      | _ -> (current, steps)
    end
  in
  let initial_obj = eval initial in
  let final, steps = loop initial initial_obj [] 0 in
  { initial; final; steps = List.rev steps;
    evaluations = Atomic.get evaluations }

let run ?pool ?max_edges ?candidates ~model ~tech initial =
  let objective = Oracle.objective ~model ~tech in
  run_objective ?pool ?max_edges ?candidates
    ~scorer:(Incremental.make_scorer ~model ~tech ~fallback:objective)
    ~objective initial

let run_budgeted ?pool ?max_edges ~max_cost_ratio ~model ~tech initial =
  if max_cost_ratio < 1.0 then
    invalid_arg "Ldrg.run_budgeted: max_cost_ratio < 1";
  let budget = max_cost_ratio *. Routing.cost initial in
  let candidates r =
    let slack = budget -. Routing.cost r in
    List.filter
      (fun (u, v) ->
        Geom.Point.manhattan (Routing.point r u) (Routing.point r v) <= slack)
      (Routing.candidate_edges r)
  in
  let objective = Oracle.objective ~model ~tech in
  run_objective ?pool ?max_edges ~candidates
    ~scorer:(Incremental.make_scorer ~model ~tech ~fallback:objective)
    ~objective initial

let routing_after trace k =
  let rec apply r steps k =
    match (steps, k) with
    | _, 0 | [], _ -> r
    | step :: rest, k ->
        let u, v = step.edge in
        apply (Routing.add_edge r u v) rest (k - 1)
  in
  apply trace.initial trace.steps k
