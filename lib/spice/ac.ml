type point = { freq_hz : float; response : Complex.t }
type sweep = point list

let log_frequencies ~f_start ~f_stop ~points_per_decade =
  if f_start <= 0.0 || f_stop <= f_start then
    invalid_arg "Ac.log_frequencies: need 0 < f_start < f_stop";
  if points_per_decade <= 0 then
    invalid_arg "Ac.log_frequencies: points_per_decade must be positive";
  let step = 10.0 ** (1.0 /. float_of_int points_per_decade) in
  let rec go f acc =
    if f > f_stop *. (1.0 +. 1e-12) then List.rev acc
    else go (f *. step) (f :: acc)
  in
  go f_start []

(* Rebuild the netlist with the chosen source as a DC 1 V marker and
   all other independent sources zeroed, then reuse the MNA stamps:
   the b-vector of the resulting system at any time is exactly the
   phasor excitation vector. *)
let excitation_netlist nl ~source =
  let found = ref false in
  let rebuilt = Circuit.Netlist.create () in
  (* Recreate all nodes under their original names so indices match. *)
  for id = 1 to Circuit.Netlist.num_nodes nl - 1 do
    ignore (Circuit.Netlist.node rebuilt (Circuit.Netlist.node_name nl id))
  done;
  List.iter
    (fun e ->
      match e with
      | Circuit.Element.Vsource { name; pos; neg; _ } when name = source ->
          found := true;
          Circuit.Netlist.add rebuilt
            (Circuit.Element.Vsource
               { name; pos; neg; wave = Circuit.Waveform.Dc 1.0 })
      | Circuit.Element.Vsource { name; pos; neg; _ } ->
          Circuit.Netlist.add rebuilt
            (Circuit.Element.Vsource
               { name; pos; neg; wave = Circuit.Waveform.Dc 0.0 })
      | Circuit.Element.Isource { name; pos; neg; _ } ->
          (* An off current source is an open circuit, but its zeroed
             form stamps nothing either; keep it for node bookkeeping. *)
          Circuit.Netlist.add rebuilt
            (Circuit.Element.Isource
               { name; pos; neg; wave = Circuit.Waveform.Dc 0.0 })
      | other -> Circuit.Netlist.add rebuilt other)
    (Circuit.Netlist.elements nl);
  if not !found then
    invalid_arg ("Ac.analyze: no voltage source named " ^ source);
  rebuilt

module Sparse = Numeric.Sparse

(* (G + jωC)(xr + j·xi) = b with b real, as the real system
   [G −ωC; ωC G]·[xr; xi] = [b; 0]: unknown u's real part is unknown u,
   its imaginary part unknown n + u. *)
let embed (sys : Mna.t) omega =
  let n = sys.Mna.size in
  let g = sys.Mna.g_csc and c = sys.Mna.c_csc in
  let capacity = 2 * (Sparse.Csc.nnz g + Sparse.Csc.nnz c) in
  let t = Sparse.Triplets.create ~capacity () in
  let iter (m : Sparse.Csc.t) f =
    for j = 0 to n - 1 do
      for p = m.colptr.(j) to m.colptr.(j + 1) - 1 do
        f m.rowind.(p) j m.values.(p)
      done
    done
  in
  iter g (fun i j v ->
      Sparse.Triplets.add t i j v;
      Sparse.Triplets.add t (n + i) (n + j) v);
  iter c (fun i j v ->
      Sparse.Triplets.add t i (n + j) (-.(omega *. v));
      Sparse.Triplets.add t (n + i) j (omega *. v));
  Sparse.Csc.of_triplets ~n:(2 * n) t

let analyze nl ~source ~probes ~frequencies =
  let excited = excitation_netlist nl ~source in
  let sys = Mna.build excited in
  let unknowns =
    List.map
      (fun probe ->
        let node =
          match Circuit.Netlist.find_node excited probe with
          | Some node -> node
          | None -> invalid_arg ("Ac.analyze: unknown probe node " ^ probe)
        in
        let unknown = sys.Mna.unknown_of_node.(node) in
        if unknown < 0 then invalid_arg "Ac.analyze: cannot probe ground";
        unknown)
      probes
  in
  let n = sys.Mna.size in
  let b = Array.append (Mna.rhs sys 0.0) (Array.make n 0.0) in
  (* The embedding keeps exact zeros, so its pattern does not depend
     on ω and the sweep shares one ordering. *)
  let symbolic = Sparse.analyze (embed sys 1.0) in
  (* One factorisation and solve per frequency yields every node, so
     every probe reads the same solution. *)
  let solutions =
    List.map
      (fun freq_hz ->
        let a = embed sys (2.0 *. Float.pi *. freq_hz) in
        match Sparse.try_factor ~symbolic a with
        | Error k ->
            (* Column k of the embedding is unknown k mod n's real or
               imaginary part; -1 (a non-finite entry) stays -1. *)
            Nontree_error.raise_error
              (Nontree_error.singular ~stage:"spice.ac" (k mod n))
        | Ok lu -> (freq_hz, Sparse.solve lu b))
      frequencies
  in
  List.map
    (fun u ->
      List.map
        (fun (freq_hz, x) ->
          { freq_hz; response = { Complex.re = x.(u); im = x.(n + u) } })
        solutions)
    unknowns

let magnitude_db p = 20.0 *. log10 (Complex.norm p.response)

let phase_deg p = Complex.arg p.response *. 180.0 /. Float.pi

let bandwidth_3db sweep =
  match sweep with
  | [] -> None
  | first :: _ ->
      let reference = magnitude_db first in
      let target = reference -. 3.0 in
      let rec scan prev = function
        | [] -> None
        | p :: rest ->
            let m = magnitude_db p in
            if m <= target then begin
              match prev with
              | None -> Some p.freq_hz
              | Some (pf, pm) ->
                  if pm = m then Some p.freq_hz
                  else begin
                    (* Log-interpolate the crossing. *)
                    let t = (pm -. target) /. (pm -. m) in
                    Some (10.0 ** (log10 pf +. (t *. (log10 p.freq_hz -. log10 pf))))
                  end
            end
            else scan (Some (p.freq_hz, m)) rest
      in
      scan None sweep

let to_csv sweep =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "freq_hz,magnitude_db,phase_deg\n";
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%.6e,%.6f,%.4f\n" p.freq_hz (magnitude_db p)
           (phase_deg p)))
    sweep;
  Buffer.contents buf
