type t =
  | Singular_matrix of { stage : string; column : int }
  | Non_finite of { stage : string; value : float }
  | Probe_never_settled of { probe : string; horizon : float }
  | Invalid_net of string

exception Error of t

let raise_error e = raise (Error e)

let singular ~stage k =
  if k < 0 then Non_finite { stage; value = Float.nan }
  else Singular_matrix { stage; column = k }

let to_string = function
  | Singular_matrix { stage; column } ->
      if column < 0 then
        Printf.sprintf "singular matrix in %s (non-finite entries)" stage
      else Printf.sprintf "singular matrix in %s (pivot column %d)" stage column
  | Non_finite { stage; value } ->
      Printf.sprintf "non-finite value (%s) in %s" (Float.to_string value) stage
  | Probe_never_settled { probe; horizon } ->
      Printf.sprintf "probe %s never settled within %.3g s" probe horizon
  | Invalid_net reason -> "invalid net: " ^ reason

let protect f = try Ok (f ()) with Error e -> Result.Error e

module Counters = struct
  type snapshot = {
    retries : int;
    moment_fallbacks : int;
    elmore_fallbacks : int;
    faults_injected : int;
    faults_survived : int;
    dropped_evaluations : int;
    dropped_nets : int;
    oracle_errors : int;
  }

  (* Registered Obs counters (atomics underneath, so the summary stays
     exact when worker domains bump them under --jobs > 1). Living in
     the registry means the robustness tallies appear in every
     nontree-obs-v1 manifest without extra plumbing. *)
  let retries = Obs.Counter.make "oracle.retries"
  let moment_fallbacks = Obs.Counter.make "oracle.fallbacks.moment"
  let elmore_fallbacks = Obs.Counter.make "oracle.fallbacks.elmore"
  let faults_injected' = Obs.Counter.make "faults.injected"
  let faults_survived = Obs.Counter.make "faults.survived"
  let dropped_evaluations = Obs.Counter.make "oracle.evaluations.dropped"
  let dropped_nets = Obs.Counter.make "harness.nets.dropped"
  let oracle_errors = Obs.Counter.make "oracle.errors"

  let all =
    [ retries; moment_fallbacks; elmore_fallbacks; faults_injected';
      faults_survived; dropped_evaluations; dropped_nets; oracle_errors ]

  let reset () = List.iter (fun c -> Obs.Counter.set c 0) all
  let any () = List.exists (fun c -> Obs.Counter.value c <> 0) all

  let snapshot () =
    { retries = Obs.Counter.value retries;
      moment_fallbacks = Obs.Counter.value moment_fallbacks;
      elmore_fallbacks = Obs.Counter.value elmore_fallbacks;
      faults_injected = Obs.Counter.value faults_injected';
      faults_survived = Obs.Counter.value faults_survived;
      dropped_evaluations = Obs.Counter.value dropped_evaluations;
      dropped_nets = Obs.Counter.value dropped_nets;
      oracle_errors = Obs.Counter.value oracle_errors }

  (* One evaluation runs entirely on one domain, so a domain-local
     tally lets Delay.Robust measure the faults injected into *its
     own* evaluation window exactly, even while other domains inject
     concurrently (the global counter alone cannot distinguish them). *)
  let injected_local = Domain.DLS.new_key (fun () -> ref 0)

  let incr_retries () = Obs.Counter.incr retries
  let incr_moment_fallbacks () = Obs.Counter.incr moment_fallbacks
  let incr_elmore_fallbacks () = Obs.Counter.incr elmore_fallbacks

  let incr_faults_injected () =
    Obs.Counter.incr faults_injected';
    incr (Domain.DLS.get injected_local)

  let add_faults_survived n = Obs.Counter.add faults_survived n
  let incr_dropped_evaluations () = Obs.Counter.incr dropped_evaluations
  let incr_dropped_nets () = Obs.Counter.incr dropped_nets
  let incr_oracle_errors () = Obs.Counter.incr oracle_errors

  let faults_injected () = Obs.Counter.value faults_injected'
  let faults_injected_local () = !(Domain.DLS.get injected_local)

  let summary () =
    let s = snapshot () in
    Printf.sprintf
      "robustness: %d retries, %d fallbacks (%d moment, %d elmore), %d \
       faults injected, %d survived, %d evals dropped, %d nets dropped, %d \
       oracle errors"
      s.retries
      (s.moment_fallbacks + s.elmore_fallbacks)
      s.moment_fallbacks s.elmore_fallbacks s.faults_injected
      s.faults_survived s.dropped_evaluations s.dropped_nets s.oracle_errors
end
