module Csc = Numeric.Sparse.Csc

let run sys lu rhs ~dt ~x0 ~t0 ~steps =
  let n = Array.length x0 in
  let x = ref (Array.copy x0) in
  let b = Array.make n 0.0 and b' = Array.make n 0.0 in
  Spice.Mna.rhs_into sys t0 b;
  let r = Array.make n 0.0 in
  let times = Array.make steps 0.0 in
  let states =
    Array.init steps (fun s ->
        let t' = t0 +. (float_of_int (s + 1) *. dt) in
        times.(s) <- t';
        Spice.Mna.rhs_into sys t' b';
        Csc.mul_vec_into rhs !x r;
        for i = 0 to n - 1 do
          r.(i) <- r.(i) +. b.(i) +. b'.(i)
        done;
        let y = Numeric.Sparse.solve lu r in
        for i = 0 to n - 1 do
          y.(i) <- y.(i) -. !x.(i)
        done;
        x := y;
        Array.blit b' 0 b 0 n;
        Array.copy y)
  in
  (times, states)
