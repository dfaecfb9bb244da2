let uniform net = Array.make (Geom.Net.num_sinks net) 1.0

let one_hot net ~critical =
  let k = Geom.Net.num_sinks net in
  if critical < 1 || critical > k then
    invalid_arg "Critical_sink.one_hot: not a sink index";
  Array.init k (fun i -> if i + 1 = critical then 1.0 else 0.0)

let check_alphas alphas r =
  if Array.length alphas <> Routing.num_terminals r - 1 then
    invalid_arg "Critical_sink: need one weight per sink"

let weighted_delay ~model ~tech ~alphas r =
  check_alphas alphas r;
  List.fold_left
    (fun acc (v, d) -> acc +. (alphas.(v - 1) *. d))
    0.0
    (Oracle.Cache.sink_delays ~model ~tech r)

let ldrg ?pool ?max_edges ~model ~tech ~alphas initial =
  check_alphas alphas initial;
  Ldrg.run_objective ?pool ?max_edges
    ~objective:(weighted_delay ~model ~tech ~alphas)
    initial

let ert_seed ~tech ~alphas net = Ert.construct_weighted ~tech ~alphas net
