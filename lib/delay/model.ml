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
let window_of sinks (m1 : float array) =
  let m = ref 0.0 in
  for i = 0 to Array.length sinks - 1 do
    m := Float.max !m m1.(sinks.(i))
  done;
  4.0 *. !m

(* Inside [prepare] and [score] an error leaves by [Failed], and they
   return it as their [Error]: a candidate's path builds no result box
   or continuation closure per step. *)
exception Failed of Nontree_error.t

let fail e = raise_notrace (Failed e)
let get = function Ok x -> x | Error e -> fail e
let protect f = match f () with v -> Ok v | exception Failed e -> Error e
let or_raise = function Ok x -> x | Error e -> Nontree_error.raise_error e

(* Loops, here and in [window_of]: an [Array] fold or search boxes floats. *)
let check_finite ~stage (a : float array) =
  for i = 0 to Array.length a - 1 do
    if not (Float.is_finite a.(i)) then
      fail (Nontree_error.Non_finite { stage; value = a.(i) })
  done;
  a

(* Fault injection point for the moment-based oracles, drawn once per
   evaluation (the SPICE oracle's is the engine's scan). *)
let injected () =
  let stage = "moments.injected" in
  match Fault.draw ~stage:"moments" with
  | None -> ()
  | Some Fault.Singular_stamp ->
      fail (Nontree_error.Singular_matrix { stage; column = 0 })
  | Some (Fault.Nan_value | Fault.Never_settles) ->
      fail (Nontree_error.Non_finite { stage; value = Float.nan })

type wire = {
  u : int;
  v : int;
  length : float;
  width : float;
  was : float option;
}

(* [f new - f old] for a per-width quantity of the wire. A new wire's
   old values are zero, so its change is [f new] bit for bit. *)
let change w f =
  match w.was with None -> f w.width | Some w0 -> f w.width -. f w0

(* The moment models' system. With the ideal step source shorted, G
   holds the wire conductances between vertices and the driver
   conductance on the source pin's diagonal; c holds each vertex's
   capacitance under the π model: its pin load plus half of every
   incident wire's. The first moments m1 solve G·m1 = c, and on a tree
   they are Elmore's delays. *)
let node_capacitances ~tech r =
  let n = Routing.num_vertices r in
  let c = Array.make n 0.0 in
  for v = 0 to Routing.num_terminals r - 1 do
    c.(v) <- tech.Circuit.Technology.sink_capacitance
  done;
  List.iter
    (fun (e : Graphs.Wgraph.edge) ->
      let cap =
        Circuit.Technology.wire_capacitance_of tech ~length:e.w
          ~width:(Routing.width r e.u e.v)
      in
      c.(e.u) <- c.(e.u) +. (cap /. 2.0);
      c.(e.v) <- c.(e.v) +. (cap /. 2.0))
    (Graphs.Wgraph.edges (Routing.graph r));
  c

let conductance_matrix ~tech r =
  let edges = Graphs.Wgraph.edges (Routing.graph r) in
  let g =
    Numeric.Sparse.Triplets.create ~capacity:((4 * List.length edges) + 1) ()
  in
  List.iter
    (fun (e : Graphs.Wgraph.edge) ->
      let cond =
        1.0
        /. Circuit.Technology.wire_resistance_of tech ~length:e.w
             ~width:(Routing.width r e.u e.v)
      in
      Numeric.Sparse.Triplets.add g e.u e.u cond;
      Numeric.Sparse.Triplets.add g e.v e.v cond;
      Numeric.Sparse.Triplets.add g e.u e.v (-.cond);
      Numeric.Sparse.Triplets.add g e.v e.u (-.cond))
    edges;
  Numeric.Sparse.Triplets.add g (Routing.source r) (Routing.source r)
    (1.0 /. tech.Circuit.Technology.driver_resistance);
  Numeric.Sparse.Csc.of_triplets ~n:(Routing.num_vertices r) g

let moment_stage ~two_pole = if two_pole then "two-pole" else "moments"

(* G factored, and c. *)
let moment_system ~two_pole ~tech r =
  match Numeric.Sparse.try_factor (conductance_matrix ~tech r) with
  | Error k -> fail (Nontree_error.singular ~stage:(moment_stage ~two_pole) k)
  | Ok g_lu -> (g_lu, node_capacitances ~tech r)

(* The 50 % delay of a single dominant pole with a time shift,
   exp(-s·delta)/(1 + s·tau), fitted to the first two moments: matching
   series coefficients gives tau = sqrt(2·m2 - m1²) and
   delta = m1 - tau. Where the fit degenerates, ln 2 · m1. *)
let two_pole_fit ~m1 ~m2 =
  Array.init (Array.length m1) (fun v ->
      let disc = (2.0 *. m2.(v)) -. (m1.(v) *. m1.(v)) in
      if disc <= 0.0 then m1.(v) *. log 2.0
      else begin
        let tau = sqrt disc in
        if tau >= m1.(v) then m1.(v) *. log 2.0
        else (m1.(v) -. tau) +. (tau *. log 2.0)
      end)

type system =
  | Tree of float array  (* Elmore's delays at the sinks *)
  | Moments of { two_pole : bool; g_lu : Numeric.Sparse.t; cap : float array }
      (* the moment G factored, and c *)
  | Transient of {
      config : spice_config;
      chains : ((int * int) * int array) array;  (* Lumping.system's *)
      p : Spice.Engine.prepared;
    }

(* Routing vertex i is unknown i of every system. *)
type round = { tech : Circuit.Technology.t; sinks : int array; system : system }

let prepare model ~tech r =
  protect @@ fun () ->
  let sinks = Array.of_list (Routing.sinks r) in
  let system =
    match model with
    | Elmore_tree -> (
        if not (Routing.is_tree r) then
          fail
            (Nontree_error.Invalid_net "Elmore oracle requires a tree routing");
        match Elmore.delays ~tech r with
        | t ->
            let ds = Array.map (fun s -> t.(s)) sinks in
            Tree (check_finite ~stage:"elmore" ds)
        | exception Invalid_argument msg -> fail (Nontree_error.Invalid_net msg))
    | First_moment | Two_pole ->
        let two_pole = model = Two_pole in
        let g_lu, cap = moment_system ~two_pole ~tech r in
        Moments { two_pole; g_lu; cap }
    | Spice config -> (
        match
          Lumping.system ~segmentation:config.segmentation
            ~include_inductance:config.include_inductance ~tech r
        with
        | exception Invalid_argument _ ->
            (* A zero-length or overflowing wire: an infinite or
               non-finite stamp, which no factorisation could take. *)
            fail (Nontree_error.singular ~stage:"spice.lumping" (-1))
        | { Lumping.mna; chains } ->
            Transient
              { config; chains; p = get (Spice.Engine.prepare_result mna) })
  in
  { tech; sinks; system }

(* A trial's arrays, kept per domain between trials: the solves'
   workspace, the correction's z = G⁻¹w, the trial's c (a SPICE trial
   solves it in place into its first moments) and its DC states. A
   round is shared with every worker domain, so its factorisation is
   only ever solved in these. *)
type trial = {
  mutable work : float array;
  mutable z : float array;
  mutable c : float array;
  mutable x0 : float array;
  mutable xf : float array;
}

let trials =
  Numeric.Scratch.make (fun () ->
      { work = [||]; z = [||]; c = [||]; x0 = [||]; xf = [||] })

(* The round's G with the wire's conductance change [g] between its
   ends, and its c with [half] added at each: the updated solve, in
   place (Sherman–Morrison on the round's factorisation), the
   correction of a solution against G alone, and the new c, all in
   [b]. *)
let update b ~stage g_lu cap w ~g ~half =
  let n = Array.length cap in
  b.work <- Numeric.Scratch.floats b.work n;
  b.z <- Numeric.Scratch.exact_floats b.z n;
  let work = b.work in
  match Numeric.Sparse.with_conductance ~work ~z:b.z g_lu w.u w.v g with
  | None ->
      fail
        (Nontree_error.Singular_matrix { stage = stage ^ ".update"; column = w.u })
  | Some correct ->
      b.c <- Numeric.Scratch.exact_floats b.c n;
      let c = b.c in
      Array.blit cap 0 c 0 n;
      c.(w.u) <- c.(w.u) +. half;
      c.(w.v) <- c.(w.v) +. half;
      let solve x =
        Numeric.Sparse.solve_with ~work g_lu x;
        correct x
      in
      (solve, correct, c)

(* The delay at every vertex of a moment round's routing with [edit]
   applied: m1, or the two-pole fit of m1 and m2 = G⁻¹·(c .* m1). *)
let moment_delays b ~tech ~two_pole g_lu cap edit =
  let stage = moment_stage ~two_pole in
  let solve, c =
    match edit with
    | None ->
        let work = Array.make (Array.length cap) 0.0 in
        (Numeric.Sparse.solve_with ~work g_lu, cap)
    | Some w ->
        let length = w.length in
        let g =
          change w (fun width ->
              1.0 /. Circuit.Technology.wire_resistance_of tech ~length ~width)
        in
        let half =
          change w (fun width ->
              Circuit.Technology.wire_capacitance_of tech ~length ~width)
          /. 2.0
        in
        let solve, _, c = update b ~stage g_lu cap w ~g ~half in
        (solve, c)
  in
  let solved rhs =
    let x = Array.copy rhs in
    solve x;
    x
  in
  let m1 = check_finite ~stage (solved c) in
  if not two_pole then m1
  else
    let m2 = solved (Array.mapi (fun i ci -> ci *. m1.(i)) c) in
    two_pole_fit ~m1 ~m2:(check_finite ~stage m2)

(* A SPICE round's edit at DC, where a wire's capacitors are open: its
   π-chain of n_seg segments is one series conductance 1/(n_seg·seg_r)
   between its ends, and a chain's interior capacitances split evenly
   to its ends, so the wire adds half its capacitance change at each.
   Returns n_seg, [per_chain f] (the change in [f seg_r seg_c]; the
   count depends only on length), the correction of the round's states
   for the conductance, and the first moments m1 (in [b.c]). *)
let spice_update b round config (p : Spice.Engine.prepared) w =
  let segments width =
    Lumping.pi_segments ~segmentation:config.segmentation ~tech:round.tech
      ~length:w.length ~width
  in
  let n_seg, seg_r, seg_c = segments w.width in
  let was = Option.map segments w.was in
  let per_chain f =
    match was with
    | None -> f seg_r seg_c
    | Some (_, r0, c0) -> f seg_r seg_c -. f r0 c0
  in
  let segs = float_of_int n_seg in
  let solve, correct, m1 =
    update b ~stage:"spice" p.g_lu p.cap w
      ~g:(per_chain (fun r _ -> 1.0 /. (segs *. r)))
      ~half:(per_chain (fun _ c -> segs *. c) /. 2.0)
  in
  solve m1;
  (n_seg, per_chain, correct, m1)

(* The unknowns of wire (u, v)'s chain, u < v. *)
let chain_of chains u v =
  let rec find i =
    let (a, b), chain = chains.(i) in
    if a = u && b = v then chain else find (i + 1)
  in
  find 0

(* The trial's states and stamps. At DC the wire's interior nodes lie
   evenly between its ends' voltages: the round's operating point and
   settled state, corrected, with the chain's interior nodes (appended
   after every base unknown for a new wire, the wire's own for a
   resized one) interpolated, in [b.x0] and [b.xf]. The transient
   stamps each segment's conductance, then its two half capacitors, on
   that chain. *)
let edited b round config chains (p : Spice.Engine.prepared) = function
  | None -> (p.m1, None, p.x0, p.xf)
  | Some w ->
      let n_seg, per_chain, correct, m1 = spice_update b round config p w in
      let n = Array.length p.x0 in
      let added = if Option.is_none w.was then n_seg - 1 else 0 in
      let chain =
        match w.was with
        | Some _ -> chain_of chains w.u w.v
        | None ->
            Array.init (n_seg + 1) (fun s ->
                if s = 0 then w.u else if s = n_seg then w.v else n + s - 1)
      in
      b.x0 <- Numeric.Scratch.exact_floats b.x0 (n + added);
      b.xf <- Numeric.Scratch.exact_floats b.xf (n + added);
      let dc_state x base =
        Array.blit base 0 x 0 n;
        Array.fill x n added 0.0;
        correct x;
        let xu = x.(w.u) and xv = x.(w.v) in
        for s = 1 to n_seg - 1 do
          x.(chain.(s)) <-
            xu +. ((xv -. xu) *. float_of_int s /. float_of_int n_seg)
        done;
        x
      in
      let x0 = check_finite ~stage:"spice.dc" (dc_state b.x0 p.x0) in
      let xf = check_finite ~stage:"spice.settle" (dc_state b.xf p.xf) in
      let seg_g = per_chain (fun r _ -> 1.0 /. r) in
      let half_c = per_chain (fun _ c -> c) /. 2.0 in
      let stamp i j value = { Spice.Transient.i; j; value } in
      let stamps =
        {
          Spice.Transient.added;
          g = Array.init n_seg (fun s -> stamp chain.(s) chain.(s + 1) seg_g);
          c =
            Array.init (2 * n_seg) (fun k ->
                stamp chain.((k / 2) + (k mod 2)) (-1) half_c);
        }
      in
      (m1, Some stamps, x0, xf)

let transient_delays b round config chains p ~cutoff edit =
  let m1, stamps, x0, xf = edited b round config chains p edit in
  let sinks = round.sinks in
  let horizon = window_of sinks m1 in
  if not (Float.is_finite horizon && horizon > 0.0) then
    fail (Nontree_error.Non_finite { stage = "spice.window"; value = horizon });
  match
    get
      (Spice.Engine.threshold_scan_result ~options:config.options ?stamps
         ~cutoff p.Spice.Engine.pattern ~idx:sinks ~x0 ~xf ~horizon)
  with
  | Spice.Engine.Above b -> Spice.Engine.Above b
  | Spice.Engine.Exact ds as exact ->
      for i = 0 to Array.length ds - 1 do
        if Float.is_nan ds.(i) then
          fail
            (Nontree_error.Probe_never_settled
               { probe = Lumping.vertex_node_name sinks.(i); horizon })
      done;
      ignore (check_finite ~stage:"spice.delays" ds);
      exact

let score ?(cutoff = Float.infinity) round edit =
  match
    Numeric.Scratch.use trials @@ fun b ->
    match (round.system, edit) with
    | Tree ds, None -> Spice.Engine.Exact (Array.copy ds)
    | Moments { two_pole; g_lu; cap }, _ ->
        injected ();
        let d = moment_delays b ~tech:round.tech ~two_pole g_lu cap edit in
        Spice.Engine.Exact (Array.map (fun s -> d.(s)) round.sinks)
    | ( Tree _
      | Transient { config = { include_inductance = true; _ }; _ } ),
        Some _ ->
        invalid_arg "Model.score: an edit of an Elmore or RLC round"
    | Transient { config; chains; p }, _ ->
        transient_delays b round config chains p ~cutoff edit
  with
  | s -> Ok s
  | exception Failed e -> Error e

let window round edit =
  match round.system with
  | Transient { config; p; _ } ->
      protect (fun () ->
          match edit with
          | None -> window_of round.sinks p.Spice.Engine.m1
          | Some w ->
              Numeric.Scratch.use trials (fun b ->
                  let _, _, _, m1 = spice_update b round config p w in
                  window_of round.sinks m1))
  | Tree _ | Moments _ -> invalid_arg "Model.window: not a SPICE round"

let spice_horizon ~tech r =
  or_raise @@ protect @@ fun () ->
  let g_lu, cap = moment_system ~two_pole:false ~tech r in
  Numeric.Scratch.use trials (fun b ->
      window_of
        (Array.of_list (Routing.sinks r))
        (moment_delays b ~tech ~two_pole:false g_lu cap None))

let delays model ~tech r =
  match Result.bind (prepare model ~tech r) (fun round -> score round None) with
  | Ok (Spice.Engine.Exact ds) -> Ok ds
  | Ok (Spice.Engine.Above _) -> assert false (* no cutoff *)
  | Error e -> Error e

let sink_delays_result model ~tech r =
  Result.map
    (fun ds -> List.mapi (fun i s -> (s, ds.(i))) (Routing.sinks r))
    (delays model ~tech r)

let sink_delays model ~tech r = or_raise (sink_delays_result model ~tech r)
let max_delay model ~tech r = Sinks.largest (or_raise (delays model ~tech r))
