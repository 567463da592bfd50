type bound =
  | Vertex_bound of Graph.vertex_id
  | Edge_bound of Graph.vertex_id * Graph.vertex_id
  | Interface_bound
  | Memory_bound
  | Resource_bound of string
  | Offered_load

type result = {
  capacity : float;
  attained : float;
  bottleneck : bound;
  vertex_caps : (Graph.vertex_id * float) list;
  edge_caps : ((Graph.vertex_id * Graph.vertex_id) * float) list;
  interface_cap : float;
  memory_cap : float;
}

let vertex_inflow g id =
  match (Graph.vertex g id).kind with
  | Graph.Ingress -> 1.
  | Graph.Egress | Graph.Ip ->
    List.fold_left (fun acc (e : Graph.edge) -> acc +. e.delta) 0. (Graph.in_edges g id)

module C = Graph.Compiled

(* Vertices with no incoming flow and infinite-throughput vertices do
   not bound; every other vertex caps at γ·A·P/Σδ. *)
let vertex_bounds (c : C.t) v = not (c.inflow.(v) <= 0. || c.throughput.(v) = infinity)
let vertex_cap (c : C.t) v = c.partition.(v) *. c.accel.(v) *. c.throughput.(v) /. c.inflow.(v)

let edge_bounds (c : C.t) e = Option.is_some c.bandwidth.(e) && c.delta.(e) > 0.
let edge_cap (c : C.t) e = Option.get c.bandwidth.(e) /. c.delta.(e)

let media_sums (c : C.t) =
  let sum_alpha = ref 0. and sum_beta = ref 0. in
  for e = 0 to C.edge_count c - 1 do
    sum_alpha := !sum_alpha +. c.alpha.(e);
    sum_beta := !sum_beta +. c.beta.(e)
  done;
  (!sum_alpha, !sum_beta)

let media_caps c ~(hw : Params.hardware) =
  let sum_alpha, sum_beta = media_sums c in
  ( (if sum_alpha > 0. then hw.bw_interface /. sum_alpha else infinity),
    if sum_beta > 0. then hw.bw_memory /. sum_beta else infinity )

(* [acc] min'd with every vertex ceiling (id order), then every
   dedicated-edge ceiling (edge order). *)
let min_caps (c : C.t) acc =
  let acc = ref acc in
  for v = 0 to C.vertex_count c - 1 do
    if vertex_bounds c v then acc := Float.min !acc (vertex_cap c v)
  done;
  for e = 0 to C.edge_count c - 1 do
    if edge_bounds c e then acc := Float.min !acc (edge_cap c e)
  done;
  !acc

(* Eq 4 as [evaluate] folds it: every candidate bound in priority order
   from infinity. *)
let ceiling c ~hw =
  let interface_cap, memory_cap = media_caps c ~hw in
  Float.min (Float.min (min_caps c infinity) interface_cap) memory_cap

let attained c ~hw ~(traffic : Traffic.t) = Float.min (ceiling c ~hw) traffic.rate

let evaluate_compiled (c : C.t) ~hw ~(traffic : Traffic.t) =
  let caps n bounds cap key =
    List.filter_map
      (fun i -> if bounds c i then Some (key i, cap c i) else None)
      (List.init n Fun.id)
  in
  let vertex_caps = caps (C.vertex_count c) vertex_bounds vertex_cap Fun.id in
  let edge_caps =
    caps (C.edge_count c) edge_bounds edge_cap (fun e -> (c.src.(e), c.dst.(e)))
  in
  let interface_cap, memory_cap = media_caps c ~hw in
  (* Enumerate every candidate bound in priority order; the first one
     at the minimum binds, so ties resolve deterministically. *)
  let candidates =
    List.map (fun (id, c) -> (Vertex_bound id, c)) vertex_caps
    @ List.map (fun ((s, d), c) -> (Edge_bound (s, d), c)) edge_caps
    @ [ (Interface_bound, interface_cap); (Memory_bound, memory_cap) ]
  in
  let capacity = ceiling c ~hw in
  let attained = Float.min capacity traffic.rate in
  let bottleneck =
    if capacity <= traffic.rate then
      match List.find_opt (fun (_, c) -> c <= capacity) candidates with
      | Some (b, _) -> b
      | None -> Offered_load
    else Offered_load
  in
  {
    capacity;
    attained;
    bottleneck;
    vertex_caps;
    edge_caps;
    interface_cap;
    memory_cap;
  }

let evaluate g ~hw ~traffic =
  evaluate_compiled (C.checked ~who:"Throughput" g) ~hw ~traffic

let capacity g ~hw =
  let c = C.checked ~who:"Throughput" g in
  let interface_cap, memory_cap = media_caps c ~hw in
  min_caps c (Float.min interface_cap memory_cap)

let pp_bound g ppf = function
  | Vertex_bound id ->
    Fmt.pf ppf "vertex %d (%s)" id (Graph.vertex g id).label
  | Edge_bound (s, d) -> Fmt.pf ppf "edge %d->%d" s d
  | Interface_bound -> Fmt.string ppf "shared interface bandwidth"
  | Memory_bound -> Fmt.string ppf "memory bandwidth"
  | Resource_bound name -> Fmt.pf ppf "shared resource %s" name
  | Offered_load -> Fmt.string ppf "offered load (ingress rate)"

let pp_result g ppf r =
  Fmt.pf ppf "@[<v>capacity: %.3f Gbps@,attained: %.3f Gbps@,bottleneck: %a"
    (Units.to_gbps r.capacity) (Units.to_gbps r.attained) (pp_bound g)
    r.bottleneck;
  List.iter
    (fun (id, c) ->
      Fmt.pf ppf "@,  vertex %d (%s) cap: %.3f Gbps" id (Graph.vertex g id).label
        (Units.to_gbps c))
    r.vertex_caps;
  List.iter
    (fun ((s, d), c) ->
      Fmt.pf ppf "@,  edge %d->%d cap: %.3f Gbps" s d (Units.to_gbps c))
    r.edge_caps;
  if r.interface_cap < infinity then
    Fmt.pf ppf "@,  interface cap: %.3f Gbps" (Units.to_gbps r.interface_cap);
  if r.memory_cap < infinity then
    Fmt.pf ppf "@,  memory cap: %.3f Gbps" (Units.to_gbps r.memory_cap);
  Fmt.pf ppf "@]"
