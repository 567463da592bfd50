(* The list-walking model evaluator, kept as the differential-testing
   oracle for the compiled one in Lognic.Throughput/Latency/Estimate/
   Extensions/Tail: every lookup is a scan of the graph's vertex and
   edge lists, every path is re-walked hop by hop, the per-vertex queue
   state vectors are built with Array.init/Array.map, and the joint
   multi-class evaluation (without contention) and the tail model are
   restated on top. Props checks that Estimate.run, the joint mix, the
   tail model and the joint tail agree with it bit for bit. *)

module G = Lognic.Graph
module L = Lognic.Latency
module Tp = Lognic.Throughput
module Q = Lognic_queueing

let checked ~who g =
  match G.validate g with
  | Ok () -> ()
  | Error errors -> invalid_arg (who ^ ": invalid graph: " ^ String.concat "; " errors)

let inflow g id =
  match (G.vertex g id).kind with
  | G.Ingress -> 1.
  | G.Egress | G.Ip ->
    List.fold_left (fun acc (e : G.edge) -> acc +. e.delta) 0. (G.in_edges g id)

(* ---- throughput (Eqs 1-4) -------------------------------------------- *)

let throughput g ~(hw : Lognic.Params.hardware) ~(traffic : Lognic.Traffic.t) =
  checked ~who:"Throughput" g;
  let vertex_caps =
    List.filter_map
      (fun (v : G.vertex) ->
        let inflow = inflow g v.id in
        if inflow <= 0. || v.service.throughput = infinity then None
        else
          let effective = v.service.partition *. v.service.accel *. v.service.throughput in
          Some (v.id, effective /. inflow))
      (G.vertices g)
  in
  let edge_caps =
    List.filter_map
      (fun (e : G.edge) ->
        match e.bandwidth with
        | Some bw when e.delta > 0. -> Some ((e.src, e.dst), bw /. e.delta)
        | Some _ | None -> None)
      (G.edges g)
  in
  let sum f = List.fold_left (fun acc e -> acc +. f e) 0. (G.edges g) in
  let sum_alpha = sum (fun (e : G.edge) -> e.alpha) in
  let sum_beta = sum (fun (e : G.edge) -> e.beta) in
  let interface_cap = if sum_alpha > 0. then hw.bw_interface /. sum_alpha else infinity in
  let memory_cap = if sum_beta > 0. then hw.bw_memory /. sum_beta else infinity in
  let candidates =
    List.map (fun (id, c) -> (Tp.Vertex_bound id, c)) vertex_caps
    @ List.map (fun ((s, d), c) -> (Tp.Edge_bound (s, d), c)) edge_caps
    @ [ (Tp.Interface_bound, interface_cap); (Tp.Memory_bound, memory_cap) ]
  in
  let capacity = List.fold_left (fun acc (_, c) -> Float.min acc c) infinity candidates in
  let bottleneck =
    if capacity <= traffic.rate then
      match List.find_opt (fun (_, c) -> c <= capacity) candidates with
      | Some (b, _) -> b
      | None -> Tp.Offered_load
    else Tp.Offered_load
  in
  {
    Tp.capacity;
    attained = Float.min capacity traffic.rate;
    bottleneck;
    vertex_caps;
    edge_caps;
    interface_cap;
    memory_cap;
  }

(* ---- queue state vectors --------------------------------------------- *)

let mm1n_probabilities ~rho ~capacity:n =
  let normalized raw =
    let total = Array.fold_left ( +. ) 0. raw in
    (Array.map (fun p -> p /. total) raw, total)
  in
  let probs, total = normalized (Array.init (n + 1) (fun k -> rho ** float_of_int k)) in
  if Float.is_finite total then probs
  else
    let sigma = 1. /. rho in
    fst (normalized (Array.init (n + 1) (fun k -> sigma ** float_of_int (n - k))))

let mmcn_probabilities ~lambda ~mu ~servers ~capacity =
  let raw = Array.make (capacity + 1) 0. in
  raw.(0) <- 1.;
  for k = 1 to capacity do
    raw.(k) <- raw.(k - 1) *. lambda /. (float_of_int (min k servers) *. mu);
    if raw.(k) > 1e250 then
      for j = 0 to k do
        raw.(j) <- raw.(j) /. 1e250
      done
  done;
  let total = Array.fold_left ( +. ) 0. raw in
  Array.map (fun p -> p /. total) raw

let mean_number probs =
  let acc = ref 0. in
  Array.iteri (fun k p -> acc := !acc +. (float_of_int k *. p)) probs;
  !acc

(* ---- per-vertex terms (Eqs 7, 9-12) ---------------------------------- *)

let effective_indegree g id = float_of_int (max 1 (G.in_degree g id))

let effective_rate (v : G.vertex) =
  v.service.partition *. v.service.accel *. v.service.throughput

let service_time g ~(traffic : Lognic.Traffic.t) id =
  let v = G.vertex g id in
  if v.service.throughput = infinity then 0.
  else
    let inflow = inflow g id in
    if inflow <= 0. then 0.
    else
      let d = float_of_int v.service.parallelism in
      d *. traffic.packet_size *. inflow /. (effective_rate v *. effective_indegree g id)

let rates g ~(traffic : Lognic.Traffic.t) id =
  let v = G.vertex g id in
  let d = float_of_int v.service.parallelism in
  let indeg = effective_indegree g id in
  ( traffic.rate *. indeg /. (d *. traffic.packet_size),
    effective_rate v *. indeg /. (d *. traffic.packet_size *. inflow g id) )

let terms_of_rates ~model g id ~service ~lambda ~mu =
  let v = G.vertex g id in
  let utilization = lambda /. mu in
  let terms queueing drop_probability =
    { L.vid = id; queueing; service; utilization; drop_probability }
  in
  match model with
  | L.No_queueing -> terms 0. 0.
  | L.Mm1_model ->
    terms
      (if utilization >= 1. then infinity
       else Q.Mm1.mean_waiting_time (Q.Mm1.create ~lambda ~mu))
      0.
  | L.Mm1n_model ->
    let capacity = v.service.queue_capacity in
    let q = Q.Mm1n.create ~lambda ~mu ~capacity in
    let probs = mm1n_probabilities ~rho:(Q.Mm1n.utilization q) ~capacity in
    let blocking = probs.(capacity) in
    let effective = lambda *. (1. -. blocking) in
    terms
      (if effective <= 0. then 0.
       else Float.max 0. ((mean_number probs /. effective) -. (1. /. mu)))
      blocking
  | L.Mmcn_model ->
    let servers = v.service.parallelism in
    let lambda = lambda *. float_of_int servers in
    let capacity = max v.service.queue_capacity servers in
    ignore (Q.Mmcn.create ~lambda ~mu ~servers ~capacity : Q.Mmcn.t);
    let probs = mmcn_probabilities ~lambda ~mu ~servers ~capacity in
    let blocking = probs.(capacity) in
    let waiting = mean_number probs /. (lambda *. (1. -. blocking)) in
    terms (Float.max 0. (waiting -. (1. /. mu))) blocking

let vertex_terms ~model g ~traffic id =
  let v = G.vertex g id in
  let service = service_time g ~traffic id in
  if v.service.throughput = infinity || inflow g id <= 0. then
    { L.vid = id; queueing = 0.; service; utilization = 0.; drop_probability = 0. }
  else
    let lambda, mu = rates g ~traffic id in
    terms_of_rates ~model g id ~service ~lambda ~mu

(* ---- latency (Eqs 5-8) ----------------------------------------------- *)

let transfer_time ~(hw : Lognic.Params.hardware) ~(traffic : Lognic.Traffic.t)
    (e : G.edge) =
  let interface_time = traffic.packet_size *. e.alpha /. hw.bw_interface in
  let memory_time = traffic.packet_size *. e.beta /. hw.bw_memory in
  let link_time =
    match e.bandwidth with Some bw -> traffic.packet_size *. e.delta /. bw | None -> 0.
  in
  interface_time +. memory_time +. link_time

let weights g paths =
  let raw =
    List.map
      (fun path ->
        let rec hop acc = function
          | a :: (b :: _ as rest) ->
            let total =
              List.fold_left (fun s (e : G.edge) -> s +. e.delta) 0. (G.out_edges g a)
            in
            let frac =
              match G.edge g ~src:a ~dst:b with
              | Some e when total > 0. -> e.delta /. total
              | Some _ | None -> 0.
            in
            hop (acc *. frac) rest
          | [ _ ] | [] -> acc
        in
        (path, hop 1. path))
      paths
  in
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. raw in
  if total <= 0. then raw else List.map (fun (p, w) -> (p, w /. total)) raw

let latency_with ~term_of g ~hw ~(traffic : Lognic.Traffic.t) =
  checked ~who:"Latency" g;
  let weighted = weights g (fst (G.paths_capped g)) in
  if weighted = [] then invalid_arg "Latency: no ingress->egress path";
  let terms = Hashtbl.create 16 in
  let term id : L.vertex_terms =
    match Hashtbl.find_opt terms id with
    | Some t -> t
    | None ->
      let t = term_of id in
      Hashtbl.add terms id t;
      t
  in
  let report (path, weight) =
    let rec walk q s o tr = function
      | a :: (b :: _ as rest) ->
        let t = term a in
        let transfer =
          match G.edge g ~src:a ~dst:b with
          | Some e -> transfer_time ~hw ~traffic e
          | None -> 0.
        in
        walk (q +. t.L.queueing) (s +. t.service)
          (o +. (G.vertex g a).service.overhead)
          (tr +. transfer) rest
      | [ last ] ->
        let t = term last in
        (q +. t.queueing, s +. t.service, o, tr)
      | [] -> (q, s, o, tr)
    in
    let queueing, service, overhead, transfer = walk 0. 0. 0. 0. path in
    {
      L.path;
      weight;
      total = queueing +. service +. overhead +. transfer;
      queueing;
      service;
      overhead;
      transfer;
    }
  in
  let per_path = List.map report weighted in
  let mean = List.fold_left (fun acc (r : L.path_report) -> acc +. (r.weight *. r.total)) 0. per_path in
  let per_vertex =
    List.filter_map (fun (v : G.vertex) -> Hashtbl.find_opt terms v.id) (G.vertices g)
  in
  let survival =
    List.fold_left
      (fun acc (r : L.path_report) ->
        let keep =
          List.fold_left (fun keep id -> keep *. (1. -. (term id).drop_probability)) 1. r.path
        in
        acc +. (r.weight *. keep))
      0. per_path
  in
  { L.mean; per_path; per_vertex; carried_rate = traffic.rate *. survival }

let run ?(queue_model = L.Mm1n_model) g ~hw ~traffic =
  checked ~who:"Estimate" g;
  {
    Lognic.Estimate.throughput = throughput g ~hw ~traffic;
    latency = latency_with ~term_of:(vertex_terms ~model:queue_model g ~traffic) g ~hw ~traffic;
    traffic;
  }


(* ---- joint multi-class evaluation, no contention --------------------- *)

type key = Vertex of string | Edge of string * string | Interface | Memory

let sum_alpha g = List.fold_left (fun acc (e : G.edge) -> acc +. e.alpha) 0. (G.edges g)
let sum_beta g = List.fold_left (fun acc (e : G.edge) -> acc +. e.beta) 0. (G.edges g)

(* The classes of a mix, each with its own graph: a vertex is shared
   with every class whose graph routes flow through the first vertex of
   the same label. *)
let joint_classes ~graph_for mix =
  List.map (fun ((cls : Lognic.Traffic.t), w) -> (cls, w, graph_for cls)) (Lognic.Traffic.normalize_weights mix)

(* (lambda, mu, scv) of the union queue at vertex [id] of [g], [None]
   when fewer than two classes load it. *)
let joint_rates classes g id =
  let v = G.vertex g id in
  if v.service.throughput = infinity || inflow g id <= 0. then None
  else
    let rs =
      List.filter_map
        (fun ((other : Lognic.Traffic.t), _, og) ->
          match G.find_vertex og ~label:v.label with
          | Some ov when ov.service.throughput < infinity && inflow og ov.id > 0. ->
            Some (rates og ~traffic:other ov.id)
          | Some _ | None -> None)
        classes
    in
    match rs with
    | [] | [ _ ] -> None
    | rs ->
      let lambda = List.fold_left (fun acc (l, _) -> acc +. l) 0. rs in
      if lambda <= 0. then None
      else
        let mu0 = snd (List.hd rs) in
        let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
        if List.for_all (fun (_, m) -> same m mu0) rs then Some (lambda, mu0, 1.)
        else
          let m1 = List.fold_left (fun acc (l, m) -> acc +. (l /. lambda /. m)) 0. rs in
          let m2 =
            List.fold_left (fun acc (l, m) -> acc +. (l /. lambda *. 2. /. (m *. m))) 0. rs
          in
          Some (lambda, 1. /. m1, Float.max 0. ((m2 -. (m1 *. m1)) /. (m1 *. m1)))

let mixed_traffic ?(queue_model = L.Mm1n_model) ~(hw : Lognic.Params.hardware) ~graph_for mix =
  let classes = joint_classes ~graph_for mix in
  let totals = Hashtbl.create 32 in
  let add key d =
    if d > 0. then
      Hashtbl.replace totals key (Option.value (Hashtbl.find_opt totals key) ~default:0. +. d)
  in
  let edge_key g (e : G.edge) = Edge ((G.vertex g e.src).label, (G.vertex g e.dst).label) in
  List.iter
    (fun ((cls : Lognic.Traffic.t), _, g) ->
      List.iter
        (fun (v : G.vertex) ->
          if v.service.throughput < infinity then
            let inflow = inflow g v.id in
            if inflow > 0. then add (Vertex v.label) (cls.rate *. inflow))
        (G.vertices g);
      List.iter
        (fun (e : G.edge) ->
          match e.bandwidth with
          | Some _ when e.delta > 0. -> add (edge_key g e) (cls.rate *. e.delta)
          | Some _ | None -> ())
        (G.edges g);
      add Interface (cls.rate *. sum_alpha g);
      add Memory (cls.rate *. sum_beta g))
    classes;
  let share key own =
    if own <= 0. then 1.
    else
      match Hashtbl.find_opt totals key with
      | Some total when total > 0. -> own /. total
      | Some _ | None -> 1.
  in
  let scaled (cls : Lognic.Traffic.t) g =
    let g' =
      List.fold_left
        (fun acc (v : G.vertex) ->
          let inflow = inflow g v.id in
          if v.service.throughput = infinity || inflow <= 0. then acc
          else
            let s = share (Vertex v.label) (cls.rate *. inflow) in
            if s = 1. then acc
            else G.update_service acc v.id (fun sv -> { sv with G.partition = sv.G.partition *. s }))
        g (G.vertices g)
    in
    List.fold_left
      (fun acc (e : G.edge) ->
        match e.bandwidth with
        | Some bw when e.delta > 0. ->
          let s = share (edge_key g e) (cls.rate *. e.delta) in
          if s = 1. then acc
          else G.set_edge_params ~bandwidth:(Some (bw *. s)) ~src:e.src ~dst:e.dst acc
        | Some _ | None -> acc)
      g' (G.edges g')
  in
  let hw_for (cls : Lognic.Traffic.t) g =
    let sa = share Interface (cls.rate *. sum_alpha g) in
    let sb = share Memory (cls.rate *. sum_beta g) in
    if sa = 1. && sb = 1. then hw
    else { hw with bw_interface = hw.bw_interface *. sa; bw_memory = hw.bw_memory *. sb }
  in
  let term_of (cls : Lognic.Traffic.t) g id =
    match joint_rates classes g id with
    | None -> vertex_terms ~model:queue_model g ~traffic:cls id
    | Some (lambda, mu, scv) ->
      let t =
        terms_of_rates ~model:queue_model g id ~service:(service_time g ~traffic:cls id) ~lambda ~mu
      in
      if scv = 1. then t else { t with L.queueing = t.L.queueing *. ((1. +. scv) /. 2.) }
  in
  let evaluated =
    List.map
      (fun ((cls : Lognic.Traffic.t), w, g) ->
        let tp = throughput (scaled cls g) ~hw:(hw_for cls g) ~traffic:cls in
        (cls, w, tp, latency_with ~term_of:(term_of cls g) g ~hw ~traffic:cls))
      classes
  in
  {
    Lognic.Extensions.classes = evaluated;
    throughput =
      List.fold_left (fun acc (_, _, (tp : Tp.result), _) -> acc +. tp.attained) 0. evaluated;
    latency = List.fold_left (fun acc (_, w, _, (l : L.result)) -> acc +. (w *. l.mean)) 0. evaluated;
    contention = None;
  }

let run_mix ?queue_model g ~hw ~mix = mixed_traffic ?queue_model ~hw ~graph_for:(fun _ -> g) mix

(* ---- tail latency ----------------------------------------------------- *)

(* The tail model as a walk of every path, hop by hop, re-deriving each
   vertex's sojourn moments and each edge's transfer time on every path
   through it. *)

module N = Lognic_numerics

(* First two sojourn moments of an accepted arrival, from the
   see-k-on-arrival mixture (PASTA conditioned on acceptance). *)
let mm1n_moments ~lambda ~mu ~capacity =
  let probs = Q.Mm1n.state_probabilities (Q.Mm1n.create ~lambda ~mu ~capacity) in
  let admit = 1. -. probs.(capacity) in
  if admit <= 0. then (0., 0.)
  else begin
    let m1 = ref 0. and m2 = ref 0. in
    for k = 0 to capacity - 1 do
      let q_k = probs.(k) /. admit in
      let stages = float_of_int (k + 1) in
      m1 := !m1 +. (q_k *. stages /. mu);
      m2 := !m2 +. (q_k *. stages *. (stages +. 1.) /. (mu *. mu))
    done;
    (!m1, Float.max 0. (!m2 -. (!m1 *. !m1)))
  end

let mmcn_moments ~lambda ~mu ~servers ~capacity =
  let probs = Q.Mmcn.state_probabilities (Q.Mmcn.create ~lambda ~mu ~servers ~capacity) in
  let admit = 1. -. probs.(capacity) in
  if admit <= 0. then (0., 0.)
  else begin
    let c = float_of_int servers in
    let m1 = ref 0. and m2 = ref 0. in
    for k = 0 to capacity - 1 do
      let q_k = probs.(k) /. admit in
      if k < servers then begin
        m1 := !m1 +. (q_k /. mu);
        m2 := !m2 +. (q_k *. 2. /. (mu *. mu))
      end
      else begin
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

let sojourn_moments ~model ~rates_for g ~traffic id =
  let v = G.vertex g id in
  if v.service.throughput = infinity || inflow g id <= 0. then (0., 0.)
  else
    let lambda, mu =
      match rates_for id with Some r -> r | None -> rates g ~traffic id
    in
    match model with
    | L.Mmcn_model ->
      let d = float_of_int v.service.parallelism in
      mmcn_moments ~lambda:(lambda *. d) ~mu ~servers:v.service.parallelism
        ~capacity:(max v.service.queue_capacity v.service.parallelism)
    | L.Mm1n_model | L.Mm1_model | L.No_queueing ->
      mm1n_moments ~lambda ~mu ~capacity:v.service.queue_capacity

type shape = { shift : float; gamma : (float * float) option; random_mean : float }

let path_shape ~model ~rates_for g ~hw ~traffic path =
  let rec walk mean var shift = function
    | a :: (b :: _ as rest) ->
      let m, v = sojourn_moments ~model ~rates_for g ~traffic a in
      let transfer =
        match G.edge g ~src:a ~dst:b with Some e -> transfer_time ~hw ~traffic e | None -> 0.
      in
      walk (mean +. m) (var +. v) (shift +. (G.vertex g a).service.overhead +. transfer) rest
    | [ last ] ->
      let m, v = sojourn_moments ~model ~rates_for g ~traffic last in
      (mean +. m, var +. v, shift)
    | [] -> (mean, var, shift)
  in
  let mean, var, shift = walk 0. 0. 0. path in
  { shift; gamma = N.Gamma.of_moments ~mean ~variance:var; random_mean = mean }

let shape_quantile s p =
  match s.gamma with
  | None -> s.shift +. s.random_mean
  | Some (a, scale) -> s.shift +. N.Gamma.quantile ~shape:a ~scale p

let shape_cdf s x =
  if x < s.shift then 0.
  else
    match s.gamma with
    | None -> if x >= s.shift +. s.random_mean then 1. else 0.
    | Some (a, scale) -> N.Gamma.cdf ~shape:a ~scale (x -. s.shift)

let mixture_quantile mixture p =
  let cdf x = List.fold_left (fun acc (s, w) -> acc +. (w *. shape_cdf s x)) 0. mixture in
  let hi =
    List.fold_left (fun acc (s, _) -> Float.max acc (shape_quantile s (Float.max p 0.5))) 1e-12 mixture
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

type tail = {
  overall : Lognic.Tail.quantiles;
  per_path : Lognic.Tail.path_tail list;
  quantile : float -> float;
}

let tail ?(model = L.Mm1n_model) ?(rates_for = fun _ -> None) g ~hw ~traffic =
  checked ~who:"Tail" g;
  let weighted = weights g (fst (G.paths_capped g)) in
  if weighted = [] then invalid_arg "Tail: no ingress->egress path";
  let shapes = List.map (fun (p, w) -> (path_shape ~model ~rates_for g ~hw ~traffic p, p, w)) weighted in
  let mixture = List.map (fun (s, _, w) -> (s, w)) shapes in
  let quantiles s =
    {
      Lognic.Tail.q_mean = s.shift +. s.random_mean;
      p50 = shape_quantile s 0.5;
      p90 = shape_quantile s 0.9;
      p99 = shape_quantile s 0.99;
    }
  in
  {
    overall =
      {
        q_mean = List.fold_left (fun acc (s, _, w) -> acc +. (w *. (s.shift +. s.random_mean))) 0. shapes;
        p50 = mixture_quantile mixture 0.5;
        p90 = mixture_quantile mixture 0.9;
        p99 = mixture_quantile mixture 0.99;
      };
    per_path = List.map (fun (s, p, w) -> { Lognic.Tail.tpath = p; tweight = w; tq = quantiles s }) shapes;
    quantile = mixture_quantile mixture;
  }

let mixed_tail ?model ~hw ~graph_for mix =
  let classes = joint_classes ~graph_for mix in
  List.map
    (fun ((cls : Lognic.Traffic.t), _, g) ->
      let rates_for id = Option.map (fun (l, m, _) -> (l, m)) (joint_rates classes g id) in
      (cls, tail ?model ~rates_for g ~hw ~traffic:cls))
    classes
