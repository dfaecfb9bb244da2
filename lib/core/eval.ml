type t = { delay : float; cost : float }

let measure ~model ~tech r =
  { delay = Oracle.Cache.max_delay ~model ~tech r; cost = Routing.cost r }

let ratio x ~baseline =
  { delay = x.delay /. baseline.delay; cost = x.cost /. baseline.cost }
