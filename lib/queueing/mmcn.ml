type t = { lambda : float; mu : float; servers : int; capacity : int }

let create ~lambda ~mu ~servers ~capacity =
  if lambda <= 0. || mu <= 0. then invalid_arg "Mmcn.create: rates must be > 0";
  if servers < 1 then invalid_arg "Mmcn.create: servers must be >= 1";
  if capacity < servers then invalid_arg "Mmcn.create: capacity must be >= servers";
  { lambda; mu; servers; capacity }

let utilization t = t.lambda /. (float_of_int t.servers *. t.mu)

(* Birth-death chain: service rate at state k is min(k, c)·mu. The
   unnormalized weights are built multiplicatively in log-free form with
   running normalization to stay finite for any load. *)
let state_probabilities t =
  let raw = Array.make (t.capacity + 1) 0. in
  raw.(0) <- 1.;
  for k = 1 to t.capacity do
    let service_rate = float_of_int (min k t.servers) *. t.mu in
    raw.(k) <- raw.(k - 1) *. t.lambda /. service_rate;
    (* Rescale on overflow risk; relative weights are all that matter. *)
    if raw.(k) > 1e250 then
      for j = 0 to k do
        raw.(j) <- raw.(j) /. 1e250
      done
  done;
  let total = ref 0. in
  for k = 0 to t.capacity do
    total := !total +. raw.(k)
  done;
  for k = 0 to t.capacity do
    raw.(k) <- raw.(k) /. !total
  done;
  raw

let blocking_probability t = (state_probabilities t).(t.capacity)

let mean_number_in_system t =
  let probs = state_probabilities t in
  let acc = ref 0. in
  for k = 0 to t.capacity do
    acc := !acc +. (float_of_int k *. probs.(k))
  done;
  !acc

let effective_arrival_rate t = t.lambda *. (1. -. blocking_probability t)
let mean_time_in_system t = mean_number_in_system t /. effective_arrival_rate t

let mean_waiting_time t =
  Float.max 0. (mean_time_in_system t -. (1. /. t.mu))
