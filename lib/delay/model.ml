type spice_config = {
  options : Spice.Engine.options;
  segmentation : Lumping.segmentation;
  include_inductance : bool;
}

type t =
  | Elmore_tree
  | First_moment
  | Two_pole
  | Spice of spice_config

let default_spice =
  { options = Spice.Engine.default_options;
    segmentation = Lumping.default_segmentation;
    include_inductance = false }

let fast_spice =
  { options = Spice.Engine.fast_options;
    segmentation = Lumping.Fixed 2;
    include_inductance = false }

let accurate_spice =
  { options = Spice.Engine.accurate_options;
    segmentation = Lumping.Per_length { unit_length = 500.0; max_segments = 10 };
    include_inductance = false }

let rlc_spice = { default_spice with include_inductance = true }

let name = function
  | Elmore_tree -> "elmore"
  | First_moment -> "moment1"
  | Two_pole -> "two-pole"
  | Spice { include_inductance = true; _ } -> "spice-rlc"
  | Spice _ -> "spice"

let spice_horizon ~tech r =
  (* t50 of a single-pole response is ~0.69 m1; a 4x window comfortably
     covers realistic pole spreads, and the engine doubles on demand. *)
  4.0 *. Moments.max_delay ~tech r

let ( let* ) = Result.bind

let singular ~stage k =
  if k < 0 then Nontree_error.Non_finite { stage; value = Float.nan }
  else Nontree_error.Singular_matrix { stage; column = k }

let finite_delays ~stage ds =
  let rec go = function
    | [] -> Ok ds
    | (_, d) :: rest ->
        if Float.is_finite d then go rest
        else Error (Nontree_error.Non_finite { stage; value = d })
  in
  go ds

(* Fault injection point for the moment-based oracles (the SPICE oracle
   has its own inside the engine). *)
let injected ~stage =
  match Fault.draw ~stage with
  | None -> None
  | Some Fault.Singular_stamp ->
      Some (Nontree_error.Singular_matrix { stage = stage ^ ".injected"; column = 0 })
  | Some (Fault.Nan_value | Fault.Never_settles) ->
      Some (Nontree_error.Non_finite { stage = stage ^ ".injected"; value = Float.nan })

let spice_sink_delays_result ~horizon_scale config ~tech r =
  match
    let nl, sink_names =
      Lumping.circuit_of_routing ~segmentation:config.segmentation
        ~include_inductance:config.include_inductance ~tech r
    in
    let horizon = spice_horizon ~tech r *. horizon_scale in
    (nl, sink_names, horizon)
  with
  | exception Numeric.Sparse.Singular k ->
      Error (singular ~stage:"spice.horizon" k)
  | nl, sink_names, horizon ->
      if not (Float.is_finite horizon && horizon > 0.0) then
        Error (Nontree_error.Non_finite { stage = "spice.horizon"; value = horizon })
      else
        let* delays =
          Spice.Engine.threshold_delays_result ~options:config.options nl
            ~probes:sink_names ~horizon
        in
        let rec combine acc vs ds =
          match (vs, ds) with
          | [], [] -> Ok (List.rev acc)
          | v :: vs, (_, Some t) :: ds -> combine ((v, t) :: acc) vs ds
          | _ :: _, (probe, None) :: _ ->
              Error (Nontree_error.Probe_never_settled { probe; horizon })
          | _ -> invalid_arg "Model: sink/probe length mismatch"
        in
        let* ds = combine [] (Routing.sinks r) delays in
        finite_delays ~stage:"spice.delays" ds

let sink_delays_result ?(horizon_scale = 1.0) model ~tech r =
  match model with
  | Elmore_tree -> (
      if not (Routing.is_tree r) then
        Error (Nontree_error.Invalid_net "Elmore oracle requires a tree routing")
      else
        match Elmore.sink_delays ~tech r with
        | ds -> finite_delays ~stage:"elmore" ds
        | exception Invalid_argument msg -> Error (Nontree_error.Invalid_net msg))
  | First_moment -> (
      match injected ~stage:"moments" with
      | Some e -> Error e
      | None -> (
          match Moments.sink_delays ~tech r with
          | ds -> finite_delays ~stage:"moments" ds
          | exception Numeric.Sparse.Singular k ->
              Error (singular ~stage:"moments" k)))
  | Two_pole -> (
      match injected ~stage:"moments" with
      | Some e -> Error e
      | None -> (
          match Moments.two_pole_delay ~tech r with
          | d ->
              finite_delays ~stage:"two-pole"
                (List.map (fun v -> (v, d.(v))) (Routing.sinks r))
          | exception Numeric.Sparse.Singular k ->
              Error (singular ~stage:"two-pole" k)))
  | Spice config -> spice_sink_delays_result ~horizon_scale config ~tech r

let sink_delays model ~tech r =
  match sink_delays_result model ~tech r with
  | Ok ds -> ds
  | Error e -> Nontree_error.raise_error e

let max_delay model ~tech r =
  List.fold_left
    (fun acc (_, d) -> Float.max acc d)
    0.0
    (sink_delays model ~tech r)
