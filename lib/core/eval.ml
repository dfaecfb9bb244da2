type t = { delay : float; cost : float }

let measure ~model ~tech r =
  { delay = Oracle.Cache.max_delay ~model ~tech r; cost = Routing.cost r }

let ratio x ~baseline =
  { delay = x.delay /. baseline.delay; cost = x.cost /. baseline.cost }

let pp ppf t =
  Format.fprintf ppf "delay %.4g ns, cost %.1f um" (t.delay *. 1e9) t.cost
