type config = {
  seed : int;
  trials : int;
  sizes : int list;
  tech : Circuit.Technology.t;
  eval_model : Delay.Model.t;
  search_model : Delay.Model.t;
  jobs : int;
}

let default =
  { seed = 1994;
    trials = 50;
    sizes = [ 5; 10; 20; 30 ];
    tech = Circuit.Technology.table1;
    eval_model = Delay.Model.Spice Delay.Model.fast_spice;
    search_model = Delay.Model.Spice Delay.Model.fast_spice;
    jobs = 1 }

let nets config ~size =
  let side = config.tech.Circuit.Technology.layout_side in
  (* Offset the seed by the size so each size draws an independent,
     individually reproducible stream. *)
  Geom.Netgen.uniform_batch
    ~seed:(config.seed + (1_000_003 * size))
    ~region:(Geom.Rect.square side) ~pins:size ~trials:config.trials

let sample config ~baseline ~routing =
  let measure = Eval.measure ~model:config.eval_model ~tech:config.tech in
  let b = measure baseline in
  let r = Eval.ratio (measure routing) ~baseline:b in
  { Stats.delay_ratio = r.Eval.delay; cost_ratio = r.Eval.cost }
