type queue_model = Mm1n_model | Mmcn_model | Mm1_model | No_queueing

type vertex_terms = {
  vid : Graph.vertex_id;
  queueing : float;
  service : float;
  utilization : float;
  drop_probability : float;
}

type path_report = {
  path : Graph.vertex_id list;
  weight : float;
  total : float;
  queueing : float;
  service : float;
  overhead : float;
  transfer : float;
}

type result = {
  mean : float;
  per_path : path_report list;
  per_vertex : vertex_terms list;
  carried_rate : float;
}

module C = Graph.Compiled
module Q = Lognic_queueing

(* ---- per-vertex terms ------------------------------------------------ *)

(* Every per-vertex quantity is a function of the vertex's service
   record, its inflow Σδ and its in-degree. *)

let effective_rate (s : Graph.service) = s.partition *. s.accel *. s.throughput

(* indeg is 0 for ingress vertices; the formulas treat every vertex as fed
   by at least one logical edge. *)
let effective_indegree in_degree = float_of_int (max 1 in_degree)

let eq7_service (s : Graph.service) ~inflow ~in_degree ~(traffic : Traffic.t) =
  if s.throughput = infinity then 0.
  else if inflow <= 0. then 0.
  else
    let d = float_of_int s.parallelism in
    let indeg = effective_indegree in_degree in
    d *. traffic.packet_size *. inflow /. (effective_rate s *. indeg)

(* (lambda, mu) of the vertex's virtual shared queue, per Eq 11. *)
let eq11_rates (s : Graph.service) ~inflow ~in_degree ~(traffic : Traffic.t) =
  let d = float_of_int s.parallelism in
  let indeg = effective_indegree in_degree in
  let lambda = traffic.rate *. indeg /. (d *. traffic.packet_size) in
  let mu = effective_rate s *. indeg /. (d *. traffic.packet_size *. inflow) in
  (lambda, mu)

(* Σ k·p_k, left to right. *)
let mean_number probs =
  let acc = ref 0. in
  for k = 0 to Array.length probs - 1 do
    acc := !acc +. (float_of_int k *. probs.(k))
  done;
  !acc

(* The queue-model dispatch given a vertex's (lambda, mu): the shared
   tail of the single-class terms and of the joint multi-class
   evaluation, which feeds it union arrival rates and mixture service
   rates instead of the single-class Eq 11 values. One O(N) state
   vector per query: this sits on the optimizer's inner loop. *)
let queue_terms ~model (s : Graph.service) id ~service ~lambda ~mu =
  let utilization = lambda /. mu in
  match model with
  | No_queueing ->
    { vid = id; queueing = 0.; service; utilization; drop_probability = 0. }
  | Mm1_model ->
    let q =
      if utilization >= 1. then infinity
      else Q.Mm1.mean_waiting_time (Q.Mm1.create ~lambda ~mu)
    in
    { vid = id; queueing = q; service; utilization; drop_probability = 0. }
  | Mm1n_model ->
    let capacity = s.queue_capacity in
    let probs = Q.Mm1n.state_probabilities (Q.Mm1n.create ~lambda ~mu ~capacity) in
    let blocking = probs.(capacity) in
    let effective = lambda *. (1. -. blocking) in
    let queueing =
      if effective <= 0. then 0.
      else Float.max 0. ((mean_number probs /. effective) -. (1. /. mu))
    in
    { vid = id; queueing; service; utilization; drop_probability = blocking }
  | Mmcn_model ->
    (* Undo Eq 11's division of the arrival stream across D
       per-engine queues: the exact multi-server queue sees the whole
       stream with D servers of rate 1/C each. *)
    let lambda = lambda *. float_of_int s.parallelism in
    let capacity = max s.queue_capacity s.parallelism in
    let probs =
      Q.Mmcn.state_probabilities
        (Q.Mmcn.create ~lambda ~mu ~servers:s.parallelism ~capacity)
    in
    let blocking = probs.(capacity) in
    let effective = lambda *. (1. -. blocking) in
    {
      vid = id;
      queueing = Float.max 0. ((mean_number probs /. effective) -. (1. /. mu));
      service;
      utilization;
      drop_probability = blocking;
    }

let single_terms ~model ~traffic id (s : Graph.service) ~inflow ~in_degree =
  let service = eq7_service s ~inflow ~in_degree ~traffic in
  if s.throughput = infinity || inflow <= 0. then
    { vid = id; queueing = 0.; service; utilization = 0.; drop_probability = 0. }
  else
    let lambda, mu = eq11_rates s ~inflow ~in_degree ~traffic in
    queue_terms ~model s id ~service ~lambda ~mu

let transfer_time ~(hw : Params.hardware) ~(traffic : Traffic.t) ~delta ~alpha ~beta
    ~bandwidth =
  let interface_time = traffic.packet_size *. alpha /. hw.bw_interface in
  let memory_time = traffic.packet_size *. beta /. hw.bw_memory in
  let link_time =
    match bandwidth with
    | Some bw -> traffic.packet_size *. delta /. bw
    | None -> 0.
  in
  interface_time +. memory_time +. link_time

let vertex_queueing ?(model = Mm1n_model) g ~traffic id =
  (single_terms ~model ~traffic id (Graph.vertex g id).service
     ~inflow:(Throughput.vertex_inflow g id) ~in_degree:(Graph.in_degree g id))
    .queueing

(* ---- on the compiled graph -------------------------------------------- *)

let service_time (c : C.t) ~traffic v =
  eq7_service (C.service c v) ~inflow:c.inflow.(v) ~in_degree:(C.in_degree c v) ~traffic

let rates (c : C.t) ~traffic v =
  eq11_rates (C.service c v) ~inflow:c.inflow.(v) ~in_degree:(C.in_degree c v) ~traffic

let terms ~model (c : C.t) ~traffic v =
  single_terms ~model ~traffic v (C.service c v) ~inflow:c.inflow.(v)
    ~in_degree:(C.in_degree c v)

let transfers (c : C.t) ~hw ~traffic into =
  for e = 0 to C.edge_count c - 1 do
    into.(e) <-
      transfer_time ~hw ~traffic ~delta:c.delta.(e) ~alpha:c.alpha.(e)
        ~beta:c.beta.(e) ~bandwidth:c.bandwidth.(e)
  done

(* Path weights (Eq 8): the product of δ branching fractions along each
   path, normalized over the kept paths — a top-K approximation when
   the routes are truncated. *)
let weights (c : C.t) (r : C.routes) into =
  let total = ref 0. in
  for i = 0 to Array.length r.paths - 1 do
    let hops = r.paths.(i) and via = r.via.(i) in
    let w = ref 1. in
    for k = 0 to Array.length via - 1 do
      let out = c.out_total.(hops.(k)) in
      w := !w *. (if out > 0. then c.delta.(via.(k)) /. out else 0.)
    done;
    into.(i) <- !w;
    total := !total +. !w
  done;
  if not (!total <= 0.) then
    for i = 0 to Array.length r.paths - 1 do
      into.(i) <- into.(i) /. !total
    done

(* Eq 6 along path [i], split into its four sums (queueing, service,
   overhead, transfer) in [acc]: every hop charges the vertex's Q and
   C/A, its overhead O and the edge's transfer time; the final vertex
   charges only Q and C/A. *)
let path_sums (c : C.t) (r : C.routes) ~(terms : vertex_terms array) ~transfer i acc =
  let hops = r.paths.(i) and via = r.via.(i) in
  let q = ref 0. and s = ref 0. and o = ref 0. and tr = ref 0. in
  for k = 0 to Array.length via - 1 do
    let t = terms.(hops.(k)) in
    q := !q +. t.queueing;
    s := !s +. t.service;
    o := !o +. c.overhead.(hops.(k));
    tr := !tr +. transfer.(via.(k))
  done;
  let t = terms.(hops.(Array.length hops - 1)) in
  acc.(0) <- !q +. t.queueing;
  acc.(1) <- !s +. t.service;
  acc.(2) <- !o;
  acc.(3) <- !tr

(* Survival probability along path [i]: no vertex drops the request. *)
let survival (r : C.routes) ~(terms : vertex_terms array) i =
  let hops = r.paths.(i) and keep = ref 1. in
  for k = 0 to Array.length hops - 1 do
    keep := !keep *. (1. -. terms.(hops.(k)).drop_probability)
  done;
  !keep

let no_terms v = { vid = v; queueing = 0.; service = 0.; utilization = 0.; drop_probability = 0. }

let routes_of c =
  let r = C.routes c in
  if Array.length r.paths = 0 then invalid_arg "Latency: no ingress->egress path";
  r

let evaluate_compiled_with ~term_of (c : C.t) ~hw ~(traffic : Traffic.t) =
  let r = routes_of c in
  let terms =
    Array.init (C.vertex_count c) (fun v -> if r.on_path.(v) then term_of v else no_terms v)
  in
  let transfer = Array.make (C.edge_count c) 0. in
  transfers c ~hw ~traffic transfer;
  let w = Array.make (Array.length r.paths) 0. in
  weights c r w;
  let acc = Array.make 4 0. in
  let per_path =
    List.init (Array.length r.paths) (fun i ->
        path_sums c r ~terms ~transfer i acc;
        let queueing = acc.(0) and service = acc.(1) and overhead = acc.(2)
        and transfer = acc.(3) in
        {
          path = Array.to_list r.paths.(i);
          weight = w.(i);
          total = queueing +. service +. overhead +. transfer;
          queueing;
          service;
          overhead;
          transfer;
        })
  in
  let mean = List.fold_left (fun acc p -> acc +. (p.weight *. p.total)) 0. per_path in
  let kept = ref 0. in
  for i = 0 to Array.length w - 1 do
    kept := !kept +. (w.(i) *. survival r ~terms i)
  done;
  {
    mean;
    per_path;
    per_vertex = List.filteri (fun v _ -> r.on_path.(v)) (Array.to_list terms);
    carried_rate = traffic.rate *. !kept;
  }

let evaluate_compiled ?(model = Mm1n_model) c ~hw ~traffic =
  evaluate_compiled_with ~term_of:(terms ~model c ~traffic) c ~hw ~traffic

let evaluate ?model g ~hw ~traffic =
  evaluate_compiled ?model (C.checked ~who:"Latency" g) ~hw ~traffic

let path_weights g =
  let c = C.compile g in
  let r = C.routes c in
  let w = Array.make (Array.length r.paths) 0. in
  weights c r w;
  List.init (Array.length r.paths) (fun i -> (Array.to_list r.paths.(i), w.(i)))

(* ---- repeated evaluation ---------------------------------------------- *)

type scratch = {
  model : queue_model;
  terms : vertex_terms array;
  inputs : float array;  (** per vertex, the float inputs its term was computed from *)
  counts : int array;  (** per vertex, its parallelism and queue capacity *)
  known : bool array;
  transfer : float array;
  w : float array;
  acc : float array;
}

let float_inputs = 6

let scratch ~model (c : C.t) =
  let n = C.vertex_count c in
  {
    model;
    terms = Array.init n no_terms;
    inputs = Array.make (float_inputs * n) 0.;
    counts = Array.make (2 * n) 0;
    known = Array.make n false;
    transfer = Array.make (C.edge_count c) 0.;
    w = Array.make (Array.length (C.routes c).paths) 0.;
    acc = Array.make 4 0.;
  }

(* Recompute vertex [v]'s term only when an input it reads changed
   (compared by bit pattern, so a reused term is exactly the value a
   recomputation would give). *)
let refresh_term s (c : C.t) ~(traffic : Traffic.t) v =
  let base = float_inputs * v in
  let same = ref s.known.(v) in
  let check i x =
    let slot = base + i in
    if not (Int64.equal (Int64.bits_of_float s.inputs.(slot)) (Int64.bits_of_float x))
    then begin
      s.inputs.(slot) <- x;
      same := false
    end
  in
  check 0 c.throughput.(v);
  check 1 c.accel.(v);
  check 2 c.partition.(v);
  check 3 c.inflow.(v);
  check 4 traffic.rate;
  check 5 traffic.packet_size;
  if s.counts.(2 * v) <> c.parallelism.(v) || s.counts.((2 * v) + 1) <> c.queue_capacity.(v)
  then begin
    s.counts.(2 * v) <- c.parallelism.(v);
    s.counts.((2 * v) + 1) <- c.queue_capacity.(v);
    same := false
  end;
  if not !same then begin
    s.known.(v) <- false;
    s.terms.(v) <- terms ~model:s.model c ~traffic v;
    s.known.(v) <- true
  end

let summary s (c : C.t) ~hw ~(traffic : Traffic.t) =
  let r = routes_of c in
  Array.iteri (fun v on -> if on then refresh_term s c ~traffic v) r.on_path;
  transfers c ~hw ~traffic s.transfer;
  weights c r s.w;
  let mean = ref 0. and kept = ref 0. in
  for i = 0 to Array.length r.paths - 1 do
    path_sums c r ~terms:s.terms ~transfer:s.transfer i s.acc;
    let total = s.acc.(0) +. s.acc.(1) +. s.acc.(2) +. s.acc.(3) in
    mean := !mean +. (s.w.(i) *. total);
    kept := !kept +. (s.w.(i) *. survival r ~terms:s.terms i)
  done;
  (!mean, traffic.rate *. !kept)

let pp_result ppf r =
  Fmt.pf ppf "@[<v>mean latency: %.2f us@,carried rate: %.3f Gbps"
    (Units.to_usec r.mean)
    (Units.to_gbps r.carried_rate);
  List.iter
    (fun p ->
      Fmt.pf ppf
        "@,path [%a] w=%.3f total=%.2fus (queue %.2f, service %.2f, overhead \
         %.2f, transfer %.2f)"
        Fmt.(list ~sep:(any "->") int)
        p.path p.weight (Units.to_usec p.total) (Units.to_usec p.queueing)
        (Units.to_usec p.service) (Units.to_usec p.overhead)
        (Units.to_usec p.transfer))
    r.per_path;
  Fmt.pf ppf "@]"
