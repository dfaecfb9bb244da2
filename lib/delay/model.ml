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

(* t50 of a single-pole response is ~0.69 m1; a 4x window comfortably
   covers realistic pole spreads, and the engine doubles on demand. *)
let window r m1 =
  4.0
  *. List.fold_left (fun acc s -> Float.max acc m1.(s)) 0.0 (Routing.sinks r)

let spice_horizon ~tech r = window r (Moments.first_moments ~tech r)

let ( let* ) = Result.bind

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

let prepare_spice config ~tech r =
  match
    Lumping.system ~segmentation:config.segmentation
      ~include_inductance:config.include_inductance ~tech r
  with
  | exception Invalid_argument _ ->
      (* A zero-length or overflowing wire: an infinite or non-finite
         stamp, which no factorisation could take. *)
      Error (Nontree_error.singular ~stage:"spice.lumping" (-1))
  | lowered ->
      let* p = Spice.Engine.prepare_result lowered.Lumping.mna in
      Ok (lowered, p)

let spice_sink_delays_result ~horizon_scale config ~tech r =
  let* _, p = prepare_spice config ~tech r in
  let horizon = window r p.Spice.Engine.m1 *. horizon_scale in
  if not (Float.is_finite horizon && horizon > 0.0) then
    Error (Nontree_error.Non_finite { stage = "spice.window"; value = horizon })
  else
    (* Routing vertex v is unknown v. *)
    let sinks = Array.of_list (Routing.sinks r) in
    let* found =
      Spice.Engine.threshold_prepared_result ~options:config.options p
        ~idx:sinks ~horizon
    in
    match Array.find_index Option.is_none found with
    | Some p ->
        Error
          (Nontree_error.Probe_never_settled
             { probe = Lumping.vertex_node_name sinks.(p); horizon })
    | None ->
        finite_delays ~stage:"spice.delays"
          (List.init (Array.length sinks) (fun p ->
               (sinks.(p), Option.get found.(p))))

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
              Error (Nontree_error.singular ~stage:"moments" k)))
  | Two_pole -> (
      match injected ~stage:"moments" with
      | Some e -> Error e
      | None -> (
          match Moments.two_pole_delay ~tech r with
          | d ->
              finite_delays ~stage:"two-pole"
                (List.map (fun v -> (v, d.(v))) (Routing.sinks r))
          | exception Numeric.Sparse.Singular k ->
              Error (Nontree_error.singular ~stage:"two-pole" k)))
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
