type sample = { delay_ratio : float; cost_ratio : float }

type row = {
  n : int;
  all_delay : float;
  all_cost : float;
  pct_winners : float;
  win_delay : float option;
  win_cost : float option;
}

let winner s = s.delay_ratio < 1.0 -. 1e-9

let mean f samples =
  List.fold_left (fun acc s -> acc +. f s) 0.0 samples
  /. float_of_int (List.length samples)

let summarize samples =
  if samples = [] then invalid_arg "Stats.summarize: no samples";
  let n = List.length samples in
  let winners = List.filter winner samples in
  let pct = 100.0 *. float_of_int (List.length winners) /. float_of_int n in
  { n;
    all_delay = mean (fun s -> s.delay_ratio) samples;
    all_cost = mean (fun s -> s.cost_ratio) samples;
    pct_winners = pct;
    win_delay =
      (if winners = [] then None else Some (mean (fun s -> s.delay_ratio) winners));
    win_cost =
      (if winners = [] then None else Some (mean (fun s -> s.cost_ratio) winners))
  }
