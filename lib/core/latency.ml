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

(* indeg is 0 for ingress vertices; the formulas treat every vertex as fed
   by at least one logical edge. *)
let effective_indegree g id = max 1 (Graph.in_degree g id)

let effective_rate (v : Graph.vertex) =
  v.service.partition *. v.service.accel *. v.service.throughput

let vertex_service_time g ~(traffic : Traffic.t) id =
  let v = Graph.vertex g id in
  if v.service.throughput = infinity then 0.
  else
    let inflow = Throughput.vertex_inflow g id in
    if inflow <= 0. then 0.
    else
      let d = float_of_int v.service.parallelism in
      let indeg = float_of_int (effective_indegree g id) in
      d *. traffic.packet_size *. inflow /. (effective_rate v *. indeg)

let vertex_rates g ~(traffic : Traffic.t) id =
  (* (lambda, mu) of the vertex's virtual shared queue, per Eq 11. *)
  let v = Graph.vertex g id in
  let inflow = Throughput.vertex_inflow g id in
  let d = float_of_int v.service.parallelism in
  let indeg = float_of_int (effective_indegree g id) in
  let lambda = traffic.rate *. indeg /. (d *. traffic.packet_size) in
  let mu =
    effective_rate v *. indeg /. (d *. traffic.packet_size *. inflow)
  in
  (lambda, mu)

(* The queue-model dispatch given a vertex's (lambda, mu): the shared
   tail of [vertex_terms] and of the joint multi-class evaluation, which
   feeds it union arrival rates and mixture service rates instead of the
   single-class Eq 11 values. *)
let terms_of_rates ?(model = Mm1n_model) g id ~service ~lambda ~mu =
  let v = Graph.vertex g id in
  let utilization = lambda /. mu in
  match model with
    | No_queueing ->
      { vid = id; queueing = 0.; service; utilization; drop_probability = 0. }
    | Mm1_model ->
      let q =
        if utilization >= 1. then infinity
        else Lognic_queueing.Mm1.mean_waiting_time (Lognic_queueing.Mm1.create ~lambda ~mu)
      in
      { vid = id; queueing = q; service; utilization; drop_probability = 0. }
    | Mm1n_model ->
      let queue = Lognic_queueing.Mm1n.create ~lambda ~mu ~capacity:v.service.queue_capacity in
      (* One O(N) state-vector build per vertex query: this sits on the
         optimizer's inner loop, so don't pay for it twice via the
         per-call convenience accessors. *)
      let capacity = v.service.queue_capacity in
      let probs = Lognic_queueing.Mm1n.state_probabilities queue in
      let blocking = probs.(capacity) in
      let effective = lambda *. (1. -. blocking) in
      let mean_number = ref 0. in
      Array.iteri
        (fun k p -> mean_number := !mean_number +. (float_of_int k *. p))
        probs;
      let queueing =
        if effective <= 0. then 0.
        else Float.max 0. ((!mean_number /. effective) -. (1. /. mu))
      in
      {
        vid = id;
        queueing;
        service;
        utilization;
        drop_probability = blocking;
      }
    | Mmcn_model ->
      (* Undo Eq 11's division of the arrival stream across D
         per-engine queues: the exact multi-server queue sees the whole
         stream with D servers of rate 1/C each. *)
      let d = float_of_int v.service.parallelism in
      let capacity = max v.service.queue_capacity v.service.parallelism in
      let queue =
        Lognic_queueing.Mmcn.create ~lambda:(lambda *. d) ~mu
          ~servers:v.service.parallelism ~capacity
      in
      {
        vid = id;
        queueing = Lognic_queueing.Mmcn.mean_waiting_time queue;
        service;
        utilization;
        drop_probability = Lognic_queueing.Mmcn.blocking_probability queue;
      }

let vertex_terms ?model g ~traffic id =
  let v = Graph.vertex g id in
  let service = vertex_service_time g ~traffic id in
  if v.service.throughput = infinity || Throughput.vertex_inflow g id <= 0. then
    { vid = id; queueing = 0.; service; utilization = 0.; drop_probability = 0. }
  else
    let lambda, mu = vertex_rates g ~traffic id in
    terms_of_rates ?model g id ~service ~lambda ~mu

let vertex_queueing ?model g ~traffic id = (vertex_terms ?model g ~traffic id).queueing

let edge_transfer_time g ~(hw : Params.hardware) ~(traffic : Traffic.t)
    (e : Graph.edge) =
  ignore g;
  let interface_time = traffic.packet_size *. e.alpha /. hw.bw_interface in
  let memory_time = traffic.packet_size *. e.beta /. hw.bw_memory in
  let link_time =
    match e.bandwidth with
    | Some bw -> traffic.packet_size *. e.delta /. bw
    | None -> 0.
  in
  interface_time +. memory_time +. link_time

let weights_of_paths g paths =
  let raw =
    List.map
      (fun path ->
        (* weight = product of delta branching fractions at each hop *)
        let rec hop_weight acc = function
          | a :: (b :: _ as rest) ->
            let outs = Graph.out_edges g a in
            let total = List.fold_left (fun s (e : Graph.edge) -> s +. e.delta) 0. outs in
            let frac =
              match Graph.edge g ~src:a ~dst:b with
              | Some e when total > 0. -> e.delta /. total
              | Some _ | None -> 0.
            in
            hop_weight (acc *. frac) rest
          | [ _ ] | [] -> acc
        in
        (path, hop_weight 1. path))
      paths
  in
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. raw in
  if total <= 0. then raw
  else List.map (fun (p, w) -> (p, w /. total)) raw

(* Degrade on combinatorial graphs instead of failing: the first 10k
   paths in enumeration order, weights renormalized, so the mean is a
   top-K approximation rather than an exception. *)
let path_weights g = weights_of_paths g (fst (Graph.paths_capped g))

let evaluate_with ?structure ~term_of:(uncached : Graph.vertex_id -> vertex_terms)
    g ~hw ~(traffic : Traffic.t) =
  let structure = Graph.checked ~who:"Latency" ?structure g in
  let weighted_paths = weights_of_paths g (Graph.structure_paths structure) in
  if weighted_paths = [] then invalid_arg "Latency: no ingress->egress path";
  let terms = Hashtbl.create 16 in
  let term_of id =
    match Hashtbl.find_opt terms id with
    | Some t -> t
    | None ->
      let t = uncached id in
      Hashtbl.add terms id t;
      t
  in
  let report_of_path (path, weight) =
    let rec walk q s o tr = function
      | a :: (b :: _ as rest) ->
        let t = term_of a in
        let overhead = (Graph.vertex g a).service.overhead in
        let transfer =
          match Graph.edge g ~src:a ~dst:b with
          | Some e -> edge_transfer_time g ~hw ~traffic e
          | None -> 0.
        in
        walk (q +. t.queueing) (s +. t.service) (o +. overhead) (tr +. transfer)
          rest
      | [ last ] ->
        let t = term_of last in
        (q +. t.queueing, s +. t.service, o, tr)
      | [] -> (q, s, o, tr)
    in
    let queueing, service, overhead, transfer = walk 0. 0. 0. 0. path in
    {
      path;
      weight;
      total = queueing +. service +. overhead +. transfer;
      queueing;
      service;
      overhead;
      transfer;
    }
  in
  let per_path = List.map report_of_path weighted_paths in
  let mean = List.fold_left (fun acc r -> acc +. (r.weight *. r.total)) 0. per_path in
  let per_vertex =
    List.filter_map
      (fun (v : Graph.vertex) -> Hashtbl.find_opt terms v.id)
      (Graph.vertices g)
  in
  let carried_rate =
    (* survival probability along each path, weighted by path share *)
    let survival =
      List.fold_left
        (fun acc r ->
          let keep =
            List.fold_left
              (fun keep id -> keep *. (1. -. (term_of id).drop_probability))
              1. r.path
          in
          acc +. (r.weight *. keep))
        0. per_path
    in
    traffic.rate *. survival
  in
  { mean; per_path; per_vertex; carried_rate }

type term_memo = {
  mutex : Mutex.t;
  terms : (string, vertex_terms) Lognic_numerics.Lru.t;
}

let term_memo () =
  { mutex = Mutex.create (); terms = Lognic_numerics.Lru.create ~capacity:4096 }

(* The exact bits of everything [vertex_terms] reads: the queue model,
   the vertex's service record, its inflow and in-degree, and the
   traffic's rate and packet size. Equal keys mean equal inputs to the
   same float operations, so a hit is the value a recomputation would
   return (up to [vid], restamped on the way out). *)
let term_key model g ~(traffic : Traffic.t) id =
  let v = Graph.vertex g id in
  let b = Bytes.create 81 in
  let put_float i x = Bytes.set_int64_le b (8 * i) (Int64.bits_of_float x) in
  let put_int i n = Bytes.set_int64_le b (8 * i) (Int64.of_int n) in
  put_float 0 v.service.throughput;
  put_int 1 v.service.parallelism;
  put_int 2 v.service.queue_capacity;
  put_float 3 v.service.overhead;
  put_float 4 v.service.accel;
  put_float 5 v.service.partition;
  put_float 6 (Throughput.vertex_inflow g id);
  put_int 7 (Graph.in_degree g id);
  put_float 8 traffic.rate;
  put_float 9 traffic.packet_size;
  Bytes.set_uint8 b 80
    (match model with
    | Mm1n_model -> 0
    | Mmcn_model -> 1
    | Mm1_model -> 2
    | No_queueing -> 3);
  Bytes.unsafe_to_string b

let memoized_terms memo ~model g ~traffic id =
  let key = term_key model g ~traffic id in
  match Mutex.protect memo.mutex (fun () -> Lognic_numerics.Lru.find_opt memo.terms key) with
  | Some t -> if t.vid = id then t else { t with vid = id }
  | None ->
    let t = vertex_terms ~model g ~traffic id in
    Mutex.protect memo.mutex (fun () -> Lognic_numerics.Lru.add memo.terms key t);
    t

let evaluate ?(model = Mm1n_model) ?structure ?memo g ~hw ~traffic =
  let term_of =
    match memo with
    | None -> fun id -> vertex_terms ~model g ~traffic id
    | Some memo -> memoized_terms memo ~model g ~traffic
  in
  evaluate_with ?structure ~term_of g ~hw ~traffic

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
