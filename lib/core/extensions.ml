type tenant = { name : string; graph : Graph.t; traffic : Traffic.t }

type tenant_report = {
  tenant : string;
  throughput : Throughput.result;
  latency : Latency.result;
}

type consolidated = {
  tenants : tenant_report list;
  total_attained : float;
  mean_latency : float;
  interface_utilization : float;
  memory_utilization : float;
}

module C = Graph.Compiled

let consolidate ~(hw : Params.hardware) tenants =
  if tenants = [] then invalid_arg "Extensions.consolidate: no tenants";
  (* Per-tenant demand on the shared media, in bytes/s. *)
  let demands =
    List.map
      (fun t ->
        let alpha, beta = Throughput.media_sums (C.compile t.graph) in
        (t.traffic.Traffic.rate *. alpha, t.traffic.Traffic.rate *. beta))
      tenants
  in
  let total_intf_demand = List.fold_left (fun acc (d, _) -> acc +. d) 0. demands in
  let total_mem_demand = List.fold_left (fun acc (_, d) -> acc +. d) 0. demands in
  let interface_utilization = total_intf_demand /. hw.bw_interface in
  let memory_utilization = total_mem_demand /. hw.bw_memory in
  (* Each tenant sees the shared medium minus the others' demand
     (clamped to a sliver so evaluation stays defined even when
     oversubscribed — the per-tenant cap then reflects starvation). *)
  let hw_for (intf_d, mem_d) =
    let available total own other_total =
      Float.max (total *. 0.01) (total -. (other_total -. own))
    in
    Params.hardware
      ~bw_interface:(available hw.bw_interface intf_d total_intf_demand)
      ~bw_memory:(available hw.bw_memory mem_d total_mem_demand)
  in
  let reports =
    List.map2
      (fun t demand ->
        let hw' = hw_for demand in
        {
          tenant = t.name;
          throughput = Throughput.evaluate t.graph ~hw:hw' ~traffic:t.traffic;
          latency = Latency.evaluate t.graph ~hw:hw' ~traffic:t.traffic;
        })
      tenants demands
  in
  let total_attained =
    List.fold_left (fun acc r -> acc +. r.throughput.Throughput.attained) 0. reports
  in
  let rate_weighted =
    List.map2
      (fun t r -> (r.latency.Latency.mean, t.traffic.Traffic.rate))
      tenants reports
  in
  let mean_latency = Lognic_numerics.Stats.weighted_mean rate_weighted in
  {
    tenants = reports;
    total_attained;
    mean_latency;
    interface_utilization;
    memory_utilization;
  }

type class_contention = {
  slowdown : float;
  pressure : (string * float) list;
  resource_caps : (string * float) list;
}

type contention = {
  demands : (string * float) list list;
  interference : float array array;
}

let contention ~demands ~interference =
  let n = List.length demands in
  if n = 0 then invalid_arg "Extensions.contention: empty demand list";
  if Array.length interference <> n then
    invalid_arg "Extensions.contention: interference matrix must be n x n";
  Array.iteri
    (fun i row ->
      if Array.length row <> n then
        invalid_arg "Extensions.contention: interference matrix must be n x n";
      if row.(i) <> 0. then
        invalid_arg "Extensions.contention: interference diagonal must be 0";
      Array.iter
        (fun m ->
          if m < 0. || not (Float.is_finite m) then
            invalid_arg "Extensions.contention: interference must be finite >= 0")
        row)
    interference;
  List.iter
    (List.iter (fun (name, d) ->
         if name = "" then invalid_arg "Extensions.contention: empty resource name";
         if d < 0. || not (Float.is_finite d) then
           invalid_arg "Extensions.contention: demand must be finite >= 0"))
    demands;
  { demands; interference }

type mixed_report = {
  classes : (Traffic.t * float * Throughput.result * Latency.result) list;
  throughput : float;
  latency : float;
  contention : class_contention list option;
}

(* ---- joint multi-class evaluation ----------------------------------- *)

(* Shared entities are matched across class graphs by identity: vertex
   label, (src label, dst label) for dedicated links, and the two
   device-wide media. Labels are numbered once per mix. Byte demand per
   class on an entity is what the class offers through it; each
   entity's capacity is split across the classes by offered-byte share
   (weighted multi-class service). *)
type entity_key =
  | K_vertex of int
  | K_edge of int * int
  | K_interface
  | K_memory

type joint_class = {
  jc_cls : Traffic.t;
  jc_weight : float;  (* normalized *)
  jc_label : int array;  (* per vertex, its label's number in the mix *)
  jc_slow : C.t;  (* contention slowdown applied, capacities unsplit *)
  jc_slowdown : float;
  jc_pressure : (string * float) list;
  jc_resource_caps : (string * float) list;
}

let edge_key label (c : C.t) e = K_edge (label.(c.src.(e)), label.(c.dst.(e)))

(* Offered bytes/s per entity, summed over the classes in mix order. *)
let entity_totals jcs =
  let totals = Hashtbl.create 32 in
  let add key d =
    if d > 0. then
      let cur = Option.value (Hashtbl.find_opt totals key) ~default:0. in
      Hashtbl.replace totals key (cur +. d)
  in
  List.iter
    (fun jc ->
      let c = jc.jc_slow and rate = jc.jc_cls.Traffic.rate in
      for v = 0 to C.vertex_count c - 1 do
        if c.throughput.(v) < infinity && c.inflow.(v) > 0. then
          add (K_vertex jc.jc_label.(v)) (rate *. c.inflow.(v))
      done;
      for e = 0 to C.edge_count c - 1 do
        if Option.is_some c.bandwidth.(e) && c.delta.(e) > 0. then
          add (edge_key jc.jc_label c e) (rate *. c.delta.(e))
      done;
      let alpha, beta = Throughput.media_sums c in
      add K_interface (rate *. alpha);
      add K_memory (rate *. beta))
    jcs;
  totals

(* A class that places no demand on an entity is not constrained by it
   (share 1 = keep the full capacity); the sole user of an entity gets
   share d/d = 1 exactly, so uncontended classes are never rescaled. *)
let share_of totals key own =
  if own <= 0. then 1.
  else
    match Hashtbl.find_opt totals key with
    | None -> 1.
    | Some total -> if total <= 0. then 1. else own /. total

(* The class's slowed graph and the media with every shared capacity
   split by the class's byte share: vertex partitions, dedicated-link
   bandwidths, and the interface and memory bandwidths. *)
let capacity_share ~totals ~(hw : Params.hardware) jc =
  let rate = jc.jc_cls.Traffic.rate in
  let scaled = C.copy jc.jc_slow in
  for v = 0 to C.vertex_count scaled - 1 do
    if not (scaled.throughput.(v) = infinity || scaled.inflow.(v) <= 0.) then
      let share = share_of totals (K_vertex jc.jc_label.(v)) (rate *. scaled.inflow.(v)) in
      if share <> 1. then
        C.update_service scaled v (fun s -> { s with Graph.partition = s.Graph.partition *. share })
  done;
  for e = 0 to C.edge_count scaled - 1 do
    match scaled.bandwidth.(e) with
    | Some bw when scaled.delta.(e) > 0. ->
      let share = share_of totals (edge_key jc.jc_label scaled e) (rate *. scaled.delta.(e)) in
      if share <> 1. then C.set_bandwidth scaled e (Some (bw *. share))
    | Some _ | None -> ()
  done;
  let alpha, beta = Throughput.media_sums scaled in
  let sa = share_of totals K_interface (rate *. alpha) in
  let sb = share_of totals K_memory (rate *. beta) in
  ( scaled,
    if sa = 1. && sb = 1. then hw
    else { hw with bw_interface = hw.bw_interface *. sa; bw_memory = hw.bw_memory *. sb } )

(* (lambda, mu, scv) of the union queue each label's vertex serves,
   [None] when fewer than two classes load it (single-class limit: the
   exact Eq 11 evaluation, bit-for-bit). A class loads a label when the
   first vertex of that label in its graph is finite and has inflow.
   When every sharing class sees the same service rate the mixture
   collapses exactly (scv = 1, no correction is applied); otherwise the
   effective rate is the lambda-weighted harmonic mean and the
   hyperexponential service variability inflates waiting by the M/G/1
   factor (1 + scv) / 2. *)
let union_queues jcs ~labels =
  let loads =
    List.map
      (fun jc ->
        let c = jc.jc_slow in
        let first = Array.make labels (-1) in
        for v = C.vertex_count c - 1 downto 0 do
          first.(jc.jc_label.(v)) <- v
        done;
        Array.map
          (fun v ->
            if v >= 0 && c.throughput.(v) < infinity && c.inflow.(v) > 0. then
              Some (Latency.rates c ~traffic:jc.jc_cls v)
            else None)
          first)
      jcs
  in
  Array.init labels (fun label ->
      match List.filter_map (fun load -> load.(label)) loads with
      | [] | [ _ ] -> None
      | rates ->
        let lambda = List.fold_left (fun acc (l, _) -> acc +. l) 0. rates in
        if lambda <= 0. then None
        else
          let mu0 = snd (List.hd rates) in
          let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
          if List.for_all (fun (_, m) -> same_bits m mu0) rates then Some (lambda, mu0, 1.)
          else begin
            let m1 =
              List.fold_left (fun acc (l, m) -> acc +. (l /. lambda /. m)) 0. rates
            in
            let m2 =
              List.fold_left
                (fun acc (l, m) -> acc +. (l /. lambda *. 2. /. (m *. m)))
                0. rates
            in
            let scv = Float.max 0. ((m2 -. (m1 *. m1)) /. (m1 *. m1)) in
            Some (lambda, 1. /. m1, scv)
          end)

(* The per-class view of a mix: each distinct class graph compiled and
   checked once (with [who] naming the evaluation in the error), its
   labels numbered, the contention slowdown applied on a copy, and the
   union queue of every label. *)
let build_joint ?contention:(spec : contention option) ~who ~(hw : Params.hardware)
    ~graph_for mix =
  let classes = Traffic.normalize_weights mix in
  let pairs =
    List.map (fun ((cls : Traffic.t), w) -> (cls, w, graph_for cls)) classes
  in
  let n = List.length pairs in
  (match spec with
  | Some s when List.length s.demands <> n ->
    invalid_arg "Extensions.mixed_traffic: one demand vector per class required"
  | Some _ | None -> ());
  (* pressure_jr = class j's offered bytes through resource r over the
     resource capacity; slowdown_i = 1 + sum_{j<>i} M_ij . pressure_j *)
  let capacity_of name =
    match Params.resource_capacity hw name with
    | Some c -> c
    | None ->
      invalid_arg
        ("Extensions.mixed_traffic: resource " ^ name
       ^ " not in Params.hardware.resources")
  in
  let pressures =
    match spec with
    | None -> Array.make (max n 1) []
    | Some s ->
      Array.of_list
        (List.map2
           (fun (cls, _, _) demands ->
             List.map
               (fun (name, per_byte) ->
                 (name, (cls : Traffic.t).rate *. per_byte /. capacity_of name))
               demands)
           pairs s.demands)
  in
  let slowdowns =
    Array.init n (fun i ->
        match spec with
        | None -> 1.
        | Some s ->
          let acc = ref 0. in
          for j = 0 to n - 1 do
            if j <> i then
              List.iter
                (fun (_, p) -> acc := !acc +. (s.interference.(i).(j) *. p))
                pressures.(j)
          done;
          if !acc = 0. then 1. else 1. +. !acc)
  in
  let resource_caps =
    match spec with
    | None -> Array.make (max n 1) []
    | Some s ->
      (* resource capacity split by offered-byte share, like any other
         shared entity: cap_ir = share_ir . capacity_r / demand_ir *)
      let totals_r = Hashtbl.create 8 in
      List.iter2
        (fun ((cls : Traffic.t), _, _) demands ->
          List.iter
            (fun (name, per_byte) ->
              if per_byte > 0. then
                let cur =
                  Option.value (Hashtbl.find_opt totals_r name) ~default:0.
                in
                Hashtbl.replace totals_r name (cur +. (cls.rate *. per_byte)))
            demands)
        pairs s.demands;
      Array.of_list
        (List.map2
           (fun ((cls : Traffic.t), _, _) demands ->
             List.filter_map
               (fun (name, per_byte) ->
                 if per_byte <= 0. then None
                 else
                   let own = cls.rate *. per_byte in
                   let total =
                     Option.value (Hashtbl.find_opt totals_r name) ~default:own
                   in
                   let share = if total <= 0. then 1. else own /. total in
                   Some (name, share *. capacity_of name /. per_byte))
               demands)
           pairs s.demands)
  in
  let numbers = Hashtbl.create 16 in
  let number label =
    match Hashtbl.find_opt numbers label with
    | Some l -> l
    | None ->
      let l = Hashtbl.length numbers in
      Hashtbl.add numbers label l;
      l
  in
  let compiled = ref [] in
  let compile g =
    match List.assq_opt g !compiled with
    | Some cl -> cl
    | None ->
      let c = C.checked ~who g in
      let cl = (c, Array.map number c.label) in
      compiled := (g, cl) :: !compiled;
      cl
  in
  let jcs =
    List.mapi
      (fun i (cls, w, g) ->
        let c, label = compile g in
        let slowdown = slowdowns.(i) in
        let slow =
          if slowdown = 1. then c
          else begin
            let slow = C.copy c in
            for v = 0 to C.vertex_count slow - 1 do
              if not (slow.throughput.(v) = infinity) then
                C.update_service slow v (fun s ->
                    { s with Graph.accel = s.Graph.accel /. slowdown })
            done;
            slow
          end
        in
        {
          jc_cls = cls;
          jc_weight = w;
          jc_label = label;
          jc_slow = slow;
          jc_slowdown = slowdown;
          jc_pressure = pressures.(i);
          jc_resource_caps = resource_caps.(i);
        })
      pairs
  in
  (jcs, union_queues jcs ~labels:(Hashtbl.length numbers))

(* Class [jc]'s term at vertex [v]: the single-class Eq 11 term, or the
   union queue's term solved once per label and queue shape (capacity,
   parallelism) in [solved] and shared by every class with that shape,
   carrying the class's own vertex id and service time. *)
let joint_term ~model ~union ~solved jc v =
  let c = jc.jc_slow in
  let union =
    if c.throughput.(v) = infinity || c.inflow.(v) <= 0. then None
    else union.(jc.jc_label.(v))
  in
  match union with
  | None -> Latency.terms ~model c ~traffic:jc.jc_cls v
  | Some (lambda, mu, scv) ->
    let l = jc.jc_label.(v) and s = C.service c v in
    let shape = (s.queue_capacity, s.parallelism) in
    let shared =
      match List.assoc_opt shape solved.(l) with
      | Some t -> t
      | None ->
        let t = Latency.queue_terms ~model s v ~service:0. ~lambda ~mu in
        let t =
          if scv = 1. then t
          else { t with Latency.queueing = t.Latency.queueing *. ((1. +. scv) /. 2.) }
        in
        solved.(l) <- (shape, t) :: solved.(l);
        t
    in
    { shared with vid = v; service = Latency.service_time c ~traffic:jc.jc_cls v }

let apply_resource_caps caps (cls : Traffic.t) (tp : Throughput.result) =
  List.fold_left
    (fun (tp : Throughput.result) (name, cap) ->
      if cap < tp.capacity then
        {
          tp with
          capacity = cap;
          attained = Float.min cap cls.rate;
          bottleneck =
            (if cap <= cls.rate then Throughput.Resource_bound name
             else tp.bottleneck);
        }
      else tp)
    tp caps

let mixed_traffic ?(queue_model = Latency.Mm1n_model) ?contention ~hw ~graph_for mix =
  let jcs, union = build_joint ?contention ~who:"Throughput" ~hw ~graph_for mix in
  let totals = entity_totals jcs in
  let solved = Array.make (Array.length union) [] in
  let evaluated =
    List.map
      (fun jc ->
        let scaled, hw_share = capacity_share ~totals ~hw jc in
        let tp = Throughput.evaluate_compiled scaled ~hw:hw_share ~traffic:jc.jc_cls in
        let tp = apply_resource_caps jc.jc_resource_caps jc.jc_cls tp in
        let lat =
          Latency.evaluate_compiled_with
            ~term_of:(joint_term ~model:queue_model ~union ~solved jc)
            jc.jc_slow ~hw ~traffic:jc.jc_cls
        in
        (jc.jc_cls, jc.jc_weight, tp, lat))
      jcs
  in
  let throughput =
    List.fold_left
      (fun acc (_, _, (tp : Throughput.result), _) -> acc +. tp.attained)
      0. evaluated
  in
  let latency =
    List.fold_left
      (fun acc (_, w, _, (lat : Latency.result)) -> acc +. (w *. lat.mean))
      0. evaluated
  in
  let contention =
    match contention with
    | None -> None
    | Some _ ->
      Some
        (List.map
           (fun jc ->
             {
               slowdown = jc.jc_slowdown;
               pressure = jc.jc_pressure;
               resource_caps = jc.jc_resource_caps;
             })
           jcs)
  in
  { classes = evaluated; throughput; latency; contention }

let mixed_tail ?model ?contention ~hw ~graph_for mix =
  let jcs, union = build_joint ?contention ~who:"Tail" ~hw ~graph_for mix in
  List.map
    (fun jc ->
      let rates_for v = Option.map (fun (l, m, _) -> (l, m)) union.(jc.jc_label.(v)) in
      (jc.jc_cls, Tail.evaluate_compiled ?model ~rates_for jc.jc_slow ~hw ~traffic:jc.jc_cls))
    jcs

let insert_rate_limiter g ~before ~rate ~queue_capacity =
  let target = Graph.vertex g before in
  if target.kind <> Graph.Ip then
    invalid_arg "Extensions.insert_rate_limiter: target must be an IP vertex";
  let incoming = Graph.in_edges g before in
  if incoming = [] then
    invalid_arg "Extensions.insert_rate_limiter: target has no incoming edge";
  let service =
    Graph.service ~queue_capacity ~throughput:rate ()
  in
  let g, limiter =
    Graph.add_vertex ~kind:Graph.Ip
      ~label:(target.label ^ ".rate_limiter")
      ~service g
  in
  let total_delta =
    List.fold_left (fun acc (e : Graph.edge) -> acc +. e.delta) 0. incoming
  in
  (* Re-point each incoming edge at the limiter, keeping its parameters,
     then connect the limiter to the target with the aggregate delta.
     The limiter only enqueues/dequeues, so its outgoing edge adds no
     shared-media traffic. *)
  let g =
    List.fold_left
      (fun g (e : Graph.edge) ->
        let g = Graph.remove_edge ~src:e.src ~dst:e.dst g in
        Graph.add_edge ~delta:e.delta ~alpha:e.alpha ~beta:e.beta
          ?bandwidth:e.bandwidth ~src:e.src ~dst:limiter g)
      g incoming
  in
  let g = Graph.add_edge ~delta:total_delta ~src:limiter ~dst:before g in
  (g, limiter)

(* ---- damped fixed-point iteration ----------------------------------- *)

type fixed_point_result = {
  value : float array;
  iterations : int;
  fp_converged : bool;
}

let fixed_point ?(damping = 0.5) ?(tol = 1e-9) ?(max_iter = 200) ~update x0 =
  if (not (Float.is_finite damping)) || damping <= 0. || damping > 1. then
    invalid_arg "Extensions.fixed_point: damping must be in (0, 1]";
  if not (Float.is_finite tol && tol > 0.) then
    invalid_arg "Extensions.fixed_point: tol must be > 0";
  if max_iter < 1 then
    invalid_arg "Extensions.fixed_point: max_iter must be >= 1";
  let n = Array.length x0 in
  let x = Array.copy x0 in
  let rec go i =
    if i >= max_iter then { value = x; iterations = i; fp_converged = false }
    else begin
      (* hand [update] its own copy so a mutating callee cannot corrupt
         the iterate mid-step *)
      let fx = update (Array.copy x) in
      if Array.length fx <> n then
        invalid_arg "Extensions.fixed_point: update changed the dimension";
      let step = ref 0. in
      for k = 0 to n - 1 do
        if not (Float.is_finite fx.(k)) then
          invalid_arg "Extensions.fixed_point: update produced a non-finite value";
        let xk = ((1. -. damping) *. x.(k)) +. (damping *. fx.(k)) in
        step := Float.max !step (Float.abs (xk -. x.(k)));
        x.(k) <- xk
      done;
      if !step <= tol then { value = x; iterations = i + 1; fp_converged = true }
      else go (i + 1)
    end
  in
  go 0
