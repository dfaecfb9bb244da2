(* Exact-delay pins: every delay the oracle stack computes on a few
   seeded nets, recorded bit-for-bit as hex floats.

   The golden table outputs print two or three digits, so a change to
   the numeric kernels that moves a delay in its last bits would pass
   them. These pins do not: a refactor of the linear algebra must leave
   every value below exactly as it was. Update a pin only together with
   a deliberate change of the numbers, and say so in CHANGES.md.

   Covered: [Delay.Model.max_delay] under first moment, two pole, fast
   SPICE and default SPICE on three seeded 10-pin MSTs and on their
   LDRG outputs; the per-step objectives of LDRG runs under two pole
   and fast SPICE, with candidates scored both on the plain path and
   on the incremental (rank-1 update) path; [Delay.Model.spice_horizon],
   which sets [route --deck]'s .tran stop, on the same routings; and,
   as one digest per moment model, every sink delay of every round-1
   candidate of a seeded 20-pin MST, scored through [Delay.Model.score]
   as the greedy loop scores it. *)

let tech = Circuit.Technology.table1
let hex = Printf.sprintf "%h"

let models =
  Delay.Model.
    [ ("first-moment", First_moment);
      ("two-pole", Two_pole);
      ("fast-spice", Spice fast_spice);
      ("default-spice", Spice default_spice) ]

let seeds = [ 11; 4242; 90210 ]

let mst_pins seed pins =
  let g = Rng.create seed in
  Routing.mst_of_net
    (Geom.Netgen.uniform g ~region:(Geom.Rect.square 10_000.0) ~pins)

let mst seed = mst_pins seed 10

let ldrg ~model r = Nontree.Ldrg.run ~model ~tech r

let fast_spice = Delay.Model.Spice Delay.Model.fast_spice

(* One "name value" line per pinned number, in a fixed order. *)
let routing_lines () =
  List.concat_map
    (fun seed ->
      let m = mst seed in
      let routed = (ldrg ~model:fast_spice m).Nontree.Ldrg.final in
      List.concat_map
        (fun (label, r) ->
          List.map
            (fun (name, model) ->
              Printf.sprintf "seed %d %s %s %s" seed label name
                (hex (Delay.Model.max_delay model ~tech r)))
            models)
        [ ("mst", m); ("ldrg", routed) ])
    seeds

let horizon_lines () =
  List.concat_map
    (fun seed ->
      let m = mst seed in
      let routed = (ldrg ~model:fast_spice m).Nontree.Ldrg.final in
      List.map
        (fun (label, r) ->
          Printf.sprintf "seed %d %s spice-horizon %s" seed label
            (hex (Delay.Model.spice_horizon ~tech r)))
        [ ("mst", m); ("ldrg", routed) ])
    seeds

(* The horizon is no oracle query: a scripted fault stays unconsumed. *)
let test_horizon_draws_no_fault () =
  Fault.script [ Some Fault.Singular_stamp ];
  Fun.protect ~finally:Fault.disable (fun () ->
      let h = Delay.Model.spice_horizon ~tech (mst 11) in
      Alcotest.(check string) "horizon" "0x1.7a079c168edfap-27" (hex h);
      Alcotest.(check bool) "the scripted fault is still pending" true
        (Fault.draw ~stage:"test" = Some Fault.Singular_stamp))

let with_incremental enabled f =
  let prev = Nontree.Incremental.enabled () in
  Nontree.Incremental.set_enabled enabled;
  Fun.protect ~finally:(fun () -> Nontree.Incremental.set_enabled prev) f

let ldrg_lines () =
  List.concat_map
    (fun (path, incremental) ->
      with_incremental incremental (fun () ->
          List.concat_map
            (fun seed ->
              List.concat_map
                (fun (name, model) ->
                  let trace = ldrg ~model (mst seed) in
                  List.mapi
                    (fun k (s : Nontree.Ldrg.step) ->
                      let u, v = s.edge in
                      Printf.sprintf "%s seed %d %s step %d (%d,%d) %s" path
                        seed name k u v (hex s.objective_after))
                    trace.Nontree.Ldrg.steps)
                [ ("two-pole", Delay.Model.Two_pole); ("fast-spice", fast_spice) ])
            seeds))
    [ ("plain", false); ("incremental", true) ]

(* Every sink delay of a seeded 20-pin MST (the plain oracle, no edit)
   and of each of its round-1 candidates, scored on the round's
   factored system: the winners alone pin few of these bits. *)
let candidate_lines () =
  Fault.disable ();
  let r = mst_pins 2024 20 in
  let moves = Nontree.Ldrg.adds Routing.candidate_edges r in
  List.map
    (fun (name, model) ->
      let round = Result.get_ok (Delay.Model.prepare model ~tech r) in
      let bits = Buffer.create 4096 in
      List.iter
        (fun edit ->
          match Delay.Model.score round edit with
          | Ok (Spice.Engine.Exact ds) ->
              Array.iter (fun d -> Buffer.add_string bits (hex d ^ " ")) ds
          | Ok (Spice.Engine.Above _) | Error _ ->
              Alcotest.failf "%s: a candidate did not score" name)
        (None :: List.map Option.some moves);
      Printf.sprintf "seed 2024 20-pin %s base and %d candidates %s" name
        (List.length moves)
        (Digest.to_hex (Digest.string (Buffer.contents bits))))
    Delay.Model.[ ("first-moment", First_moment); ("two-pole", Two_pole) ]

let check_lines label expected actual =
  let e = String.concat "\n" expected and a = String.concat "\n" actual in
  if e <> a then
    Alcotest.failf "%s pins moved; actual values:\n%s" label a

let routing_pins =
  [ "seed 11 mst first-moment 0x1.7a079c168edfap-29";
    "seed 11 mst two-pole 0x1.1ee947d347dabp-29";
    "seed 11 mst fast-spice 0x1.27de6d4b5ce24p-29";
    "seed 11 mst default-spice 0x1.27ad7bd321ab8p-29";
    "seed 11 ldrg first-moment 0x1.3c8c22beb8a41p-29";
    "seed 11 ldrg two-pole 0x1.d079a5633a9cap-30";
    "seed 11 ldrg fast-spice 0x1.d6b07c70f463dp-30";
    "seed 11 ldrg default-spice 0x1.d5c1921ae6b02p-30";
    "seed 4242 mst first-moment 0x1.dbc9abe0a0924p-29";
    "seed 4242 mst two-pole 0x1.61ccc4baeab38p-29";
    "seed 4242 mst fast-spice 0x1.67b5c2764c73dp-29";
    "seed 4242 mst default-spice 0x1.6774e81ee5a45p-29";
    "seed 4242 ldrg first-moment 0x1.86a506e3ef892p-29";
    "seed 4242 ldrg two-pole 0x1.24150c9e10c82p-29";
    "seed 4242 ldrg fast-spice 0x1.2927b40d168c7p-29";
    "seed 4242 ldrg default-spice 0x1.28d342c2b3987p-29";
    "seed 90210 mst first-moment 0x1.25830984ba9fcp-29";
    "seed 90210 mst two-pole 0x1.b7dfe4540302fp-30";
    "seed 90210 mst fast-spice 0x1.c4381efa5f4fdp-30";
    "seed 90210 mst default-spice 0x1.c3e2298af0437p-30";
    "seed 90210 ldrg first-moment 0x1.04b0184780928p-29";
    "seed 90210 ldrg two-pole 0x1.7dcd128ad21d6p-30";
    "seed 90210 ldrg fast-spice 0x1.8505573e13013p-30";
    "seed 90210 ldrg default-spice 0x1.846d8f463fbf9p-30" ]

let ldrg_pins =
  [ "plain seed 11 two-pole step 0 (0,7) 0x1.cd7296661110bp-30";
    "plain seed 11 fast-spice step 0 (0,7) 0x1.d7a21d0a7e71fp-30";
    "plain seed 11 fast-spice step 1 (0,6) 0x1.d6b07c70f463dp-30";
    "plain seed 4242 two-pole step 0 (0,9) 0x1.25c16aac49158p-29";
    "plain seed 4242 two-pole step 1 (0,6) 0x1.24150c9e10c82p-29";
    "plain seed 4242 fast-spice step 0 (0,9) 0x1.2c1ef39c9c48ep-29";
    "plain seed 4242 fast-spice step 1 (0,6) 0x1.2927b40d168c7p-29";
    "plain seed 90210 two-pole step 0 (5,6) 0x1.7dcd128ad21d6p-30";
    "plain seed 90210 fast-spice step 0 (5,6) 0x1.8505573e13013p-30";
    "incremental seed 11 two-pole step 0 (0,7) 0x1.cd7296661111p-30";
    "incremental seed 11 fast-spice step 0 (0,7) 0x1.d7a21d0a7e726p-30";
    "incremental seed 11 fast-spice step 1 (0,6) 0x1.d6b07c70f464cp-30";
    "incremental seed 4242 two-pole step 0 (0,9) 0x1.25c16aac4915ap-29";
    "incremental seed 4242 two-pole step 1 (0,6) 0x1.24150c9e10c83p-29";
    "incremental seed 4242 fast-spice step 0 (0,9) 0x1.2c1ef39c9c477p-29";
    "incremental seed 4242 fast-spice step 1 (0,6) 0x1.2927b40d168cfp-29";
    "incremental seed 90210 two-pole step 0 (5,6) 0x1.7dcd128ad21d9p-30";
    "incremental seed 90210 fast-spice step 0 (5,6) 0x1.8505573e12fe1p-30" ]

let horizon_pins =
  [ "seed 11 mst spice-horizon 0x1.7a079c168edfap-27";
    "seed 11 ldrg spice-horizon 0x1.3c8c22beb8a41p-27";
    "seed 4242 mst spice-horizon 0x1.dbc9abe0a0924p-27";
    "seed 4242 ldrg spice-horizon 0x1.86a506e3ef892p-27";
    "seed 90210 mst spice-horizon 0x1.25830984ba9fcp-27";
    "seed 90210 ldrg spice-horizon 0x1.04b0184780928p-27" ]

let candidate_pins =
  [ "seed 2024 20-pin first-moment base and 171 candidates \
     4101b9c658169a61da61822492926180";
    "seed 2024 20-pin two-pole base and 171 candidates \
     8427f726c949f2652dd788b6cf71585c" ]

let suites =
  [ ( "pins",
      [ Alcotest.test_case "max_delay bits, MSTs and LDRG outputs" `Quick
          (fun () -> check_lines "max_delay" routing_pins (routing_lines ()));
        Alcotest.test_case "LDRG step objectives bits" `Quick (fun () ->
            check_lines "LDRG step" ldrg_pins (ldrg_lines ()));
        Alcotest.test_case "spice_horizon bits" `Quick (fun () ->
            check_lines "spice_horizon" horizon_pins (horizon_lines ()));
        Alcotest.test_case "moment round-1 candidate score bits" `Quick
          (fun () ->
            check_lines "candidate score" candidate_pins (candidate_lines ()));
        Alcotest.test_case "spice_horizon draws no fault" `Quick
          test_horizon_draws_no_fault ] ) ]
