type t = { lambda : float; mu : float; capacity : int }

let create ~lambda ~mu ~capacity =
  if lambda <= 0. || mu <= 0. then invalid_arg "Mm1n.create: rates must be > 0";
  if capacity < 1 then invalid_arg "Mm1n.create: capacity must be >= 1";
  { lambda; mu; capacity }

let utilization t = t.lambda /. t.mu

(* The state distribution is geometric truncated at N. Computing it as an
   explicit normalized vector is O(N), exact at rho = 1, and numerically
   stable for any utilization — capacities here are queue credits, so N is
   small. One array: the weights go in, their left-to-right sum is taken
   in the same pass, and they are divided through in place. *)
let probabilities t =
  let rho = utilization t in
  let n = t.capacity in
  let p = Array.make (n + 1) 0. and total = ref 0. in
  for k = 0 to n do
    let w = rho ** float_of_int k in
    p.(k) <- w;
    total := !total +. w
  done;
  if not (Float.is_finite !total) then begin
    (* rho^N overflowed (rho = 2 at N = 1100, rho = 10 at N = 400): the
       forward vector normalizes inf/inf to NaN. Reflect about the full
       state, Pro_k = sigma^(N-k) / sum_j sigma^j with sigma = 1/rho < 1,
       which every overflowing case can use. Finite forward sums keep
       the forward form, so their results do not move by a bit. *)
    let sigma = 1. /. rho in
    total := 0.;
    for k = 0 to n do
      let w = sigma ** float_of_int (n - k) in
      p.(k) <- w;
      total := !total +. w
    done
  end;
  for k = 0 to n do
    p.(k) <- p.(k) /. !total
  done;
  p

let state_probabilities = probabilities

(* Each public query builds the O(N) vector exactly once: these sit on the
   optimizer's inner loop, where the old one-vector-per-call pattern
   rebuilt it up to three times per [mean_time_in_system]. *)
let mean_number_of probs =
  let acc = ref 0. in
  for k = 0 to Array.length probs - 1 do
    acc := !acc +. (float_of_int k *. probs.(k))
  done;
  !acc

let effective_arrival_of t probs =
  t.lambda *. (1. -. probs.(t.capacity))

let state_probability t k =
  if k < 0 || k > t.capacity then 0. else (probabilities t).(k)

let blocking_probability t = (probabilities t).(t.capacity)
let mean_number_in_system t = mean_number_of (probabilities t)

let effective_arrival_rate t =
  let probs = probabilities t in
  effective_arrival_of t probs

let throughput = effective_arrival_rate

let mean_time_in_system t =
  let probs = probabilities t in
  mean_number_of probs /. effective_arrival_of t probs

let mean_waiting_time t =
  Float.max 0. (mean_time_in_system t -. (1. /. t.mu))

let waiting_time_closed_form t =
  let rho = utilization t in
  let n = float_of_int t.capacity in
  let h = rho -. 1. in
  let inner =
    if abs_float h < 1e-6 then
      (* rho = 1 is a removable singularity: both geometric terms blow
         up as 1/h and their difference cancels catastrophically (the
         naive formula is off by ~1e-4 already at h = 1e-7). Taylor:
         rho/(1-rho) - N rho^N/(1-rho^N)
           = (N-1)/2 + (N^2-1)/12 (rho-1) + O(N^3 (rho-1)^2). *)
      ((n -. 1.) /. 2.) +. (((n *. n) -. 1.) /. 12. *. h)
    else
      (* rho^N - 1 via expm1/log1p keeps full relative precision in the
         denominator even when rho^N is within an ulp of 1. *)
      let geom = Float.expm1 (n *. Float.log1p h) in
      let forward = n *. (geom +. 1.) /. geom in
      if Float.is_finite forward then forward -. (rho /. h)
      else
        (* rho^N overflowed: N rho^N / (rho^N - 1) = N / (1 - rho^-N),
           with rho^-N - 1 again through expm1. *)
        (n /. -.Float.expm1 (-.n *. Float.log1p h)) -. (rho /. h)
  in
  Float.max 0. (inner /. t.mu)
