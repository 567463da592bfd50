module Q = Lognic_queueing
module N = Lognic_numerics

type quantiles = { q_mean : float; p50 : float; p90 : float; p99 : float }
type path_tail = { tpath : Graph.vertex_id list; tweight : float; tq : quantiles }

(* First two sojourn moments of an accepted arrival, from the
   see-k-on-arrival mixture (PASTA conditioned on acceptance). *)
let mm1n_moments ~lambda ~mu ~capacity =
  let queue = Q.Mm1n.create ~lambda ~mu ~capacity in
  let probs = Q.Mm1n.state_probabilities queue in
  let admit = 1. -. probs.(capacity) in
  if admit <= 0. then (0., 0.)
  else begin
    let m1 = ref 0. and m2 = ref 0. in
    for k = 0 to capacity - 1 do
      let q_k = probs.(k) /. admit in
      let stages = float_of_int (k + 1) in
      (* Erlang(k+1, mu): E[T] = (k+1)/mu, E[T^2] = (k+1)(k+2)/mu^2 *)
      m1 := !m1 +. (q_k *. stages /. mu);
      m2 := !m2 +. (q_k *. stages *. (stages +. 1.) /. (mu *. mu))
    done;
    (!m1, Float.max 0. (!m2 -. (!m1 *. !m1)))
  end

let mmcn_moments ~lambda ~mu ~servers ~capacity =
  let queue = Q.Mmcn.create ~lambda ~mu ~servers ~capacity in
  let probs = Q.Mmcn.state_probabilities queue in
  let admit = 1. -. probs.(capacity) in
  if admit <= 0. then (0., 0.)
  else begin
    let c = float_of_int servers in
    let m1 = ref 0. and m2 = ref 0. in
    for k = 0 to capacity - 1 do
      let q_k = probs.(k) /. admit in
      if k < servers then begin
        (* immediate service: Exp(mu) *)
        m1 := !m1 +. (q_k /. mu);
        m2 := !m2 +. (q_k *. 2. /. (mu *. mu))
      end
      else begin
        (* Erlang(k-c+1, c mu) wait plus Exp(mu) service, independent *)
        let stages = float_of_int (k - servers + 1) in
        let wait_mean = stages /. (c *. mu) in
        let wait_var = stages /. ((c *. mu) ** 2.) in
        let mean = wait_mean +. (1. /. mu) in
        let var = wait_var +. (1. /. (mu *. mu)) in
        m1 := !m1 +. (q_k *. mean);
        m2 := !m2 +. (q_k *. (var +. (mean *. mean)))
      end
    done;
    (!m1, Float.max 0. (!m2 -. (!m1 *. !m1)))
  end

module C = Graph.Compiled

(* (mean, variance) of an accepted request's sojourn at vertex [v];
   (0, 0) for transparent vertices. *)
let sojourn_moments ~model ~rates_for (c : C.t) ~traffic v =
  if c.throughput.(v) = infinity || c.inflow.(v) <= 0. then (0., 0.)
  else
    let lambda, mu =
      match rates_for v with Some r -> r | None -> Latency.rates c ~traffic v
    in
    match model with
    | Latency.Mmcn_model ->
      (* undo Eq 11's per-engine arrival split, as Latency does *)
      let servers = c.parallelism.(v) in
      mmcn_moments ~lambda:(lambda *. float_of_int servers) ~mu ~servers
        ~capacity:(max c.queue_capacity.(v) servers)
    | Latency.Mm1n_model | Latency.Mm1_model | Latency.No_queueing ->
      mm1n_moments ~lambda ~mu ~capacity:c.queue_capacity.(v)

(* Per-path decomposition: random gamma part (vertex sojourns) plus a
   deterministic shift (overheads + data movement). *)
type path_shape = {
  shift : float;
  gamma : (float * float) option;  (* (shape, scale), None if variance 0 *)
  random_mean : float;
}

(* Path [i]'s sums, hop by hop in path order: every hop adds the
   vertex's sojourn moments, its overhead and the edge's transfer time;
   the final vertex adds only its moments. *)
let path_shape (c : C.t) (r : C.routes) ~means ~variances ~transfer i =
  let hops = r.paths.(i) and via = r.via.(i) in
  let mean = ref 0. and var = ref 0. and shift = ref 0. in
  for k = 0 to Array.length via - 1 do
    let a = hops.(k) in
    mean := !mean +. means.(a);
    var := !var +. variances.(a);
    shift := !shift +. c.overhead.(a) +. transfer.(via.(k))
  done;
  let last = hops.(Array.length hops - 1) in
  let mean = !mean +. means.(last) and var = !var +. variances.(last) in
  { shift = !shift; gamma = N.Gamma.of_moments ~mean ~variance:var; random_mean = mean }

let shape_cdf shape x =
  if x < shape.shift then 0.
  else
    match shape.gamma with
    | None -> if x >= shape.shift +. shape.random_mean then 1. else 0.
    | Some (a, scale) -> N.Gamma.cdf ~shape:a ~scale (x -. shape.shift)

let shape_quantile shape p =
  match shape.gamma with
  | None -> shape.shift +. shape.random_mean
  | Some (a, scale) -> shape.shift +. N.Gamma.quantile ~shape:a ~scale p

let quantiles_of_shape shape =
  {
    q_mean = shape.shift +. shape.random_mean;
    p50 = shape_quantile shape 0.5;
    p90 = shape_quantile shape 0.9;
    p99 = shape_quantile shape 0.99;
  }

type result = {
  overall_q : quantiles;
  tails : path_tail list;
  mixture : (path_shape * float) list;
}

let overall r = r.overall_q
let per_path r = r.tails

let mixture_quantile shapes_weights p =
  let cdf x =
    List.fold_left (fun acc (s, w) -> acc +. (w *. shape_cdf s x)) 0. shapes_weights
  in
  (* bracket: the largest per-path p-quantile is an upper bound *)
  let hi =
    List.fold_left
      (fun acc (s, _) -> Float.max acc (shape_quantile s (Float.max p 0.5)))
      1e-12 shapes_weights
  in
  let lo = ref 0. and hi = ref (hi *. 2.) in
  while cdf !hi < p do
    hi := !hi *. 2.
  done;
  for _ = 1 to 100 do
    let mid = 0.5 *. (!lo +. !hi) in
    if cdf mid < p then lo := mid else hi := mid
  done;
  0.5 *. (!lo +. !hi)

let evaluate_compiled ?(model = Latency.Mm1n_model) ~rates_for (c : C.t) ~hw ~traffic =
  let r = C.routes c in
  if Array.length r.paths = 0 then invalid_arg "Tail: no ingress->egress path";
  let n = C.vertex_count c in
  let means = Array.make n 0. and variances = Array.make n 0. in
  Array.iteri
    (fun v on ->
      if on then begin
        let m, var = sojourn_moments ~model ~rates_for c ~traffic v in
        means.(v) <- m;
        variances.(v) <- var
      end)
    r.on_path;
  let transfer = Array.make (C.edge_count c) 0. in
  Latency.transfers c ~hw ~traffic transfer;
  let w = Array.make (Array.length r.paths) 0. in
  Latency.weights c r w;
  let shapes =
    List.init (Array.length r.paths) (fun i ->
        (path_shape c r ~means ~variances ~transfer i, Array.to_list r.paths.(i), w.(i)))
  in
  let tails =
    List.map (fun (s, p, w) -> { tpath = p; tweight = w; tq = quantiles_of_shape s }) shapes
  in
  let mixture = List.map (fun (s, _, w) -> (s, w)) shapes in
  let overall_q =
    {
      q_mean =
        List.fold_left
          (fun acc (s, _, w) -> acc +. (w *. (s.shift +. s.random_mean)))
          0. shapes;
      p50 = mixture_quantile mixture 0.5;
      p90 = mixture_quantile mixture 0.9;
      p99 = mixture_quantile mixture 0.99;
    }
  in
  { overall_q; tails; mixture }

let evaluate ?model ?(rates_for = fun _ -> None) g ~hw ~traffic =
  evaluate_compiled ?model ~rates_for (C.checked ~who:"Tail" g) ~hw ~traffic

let quantile r p =
  if p <= 0. || p >= 1. then invalid_arg "Tail.quantile: p outside (0, 1)";
  mixture_quantile r.mixture p
