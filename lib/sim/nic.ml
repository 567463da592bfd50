(** The simulator core: a LogNIC execution graph compiled once per run
    into the entities the model abstracts, and the fixed packet walk over
    them.

    {!compile} validates the graph and builds one {!Ip_node} per
    finite-throughput vertex, the shared interface and memory {!Medium}s,
    one private medium per dedicated-bandwidth edge, and the dense
    per-vertex / per-edge runtime tables the walk reads. {!walk} returns
    the arrival callback that drives a packet through them: flight pool,
    node submit, routing, the interface/memory/link hops, delivery, drop
    and release. The walk names no optional feature; faults, tenants,
    the flow cache, tracing, metrics and invariant checks each install a
    {!hooks} value next to their own module, and {!compose} merges the
    enabled ones once per run. *)

module G = Lognic.Graph
module N = Lognic_numerics

(** An interned drop counter plus its rendered site name, resolved once
    at compile time so the per-drop path neither hashes a site value nor
    formats a string. *)
type dropper = { dk : Telemetry.counter; d_name : string }

(** Dense per-edge runtime row. [e_pe] is the edge's reach probability
    under the delta-proportional routing (scales per-packet bytes so
    aggregate medium loads match the model's W-fractions). *)
type edge_rt = {
  e_dst : G.vertex_id;
  e_delta : float;
  e_alpha : float;
  e_beta : float;
  e_pe : float;
  e_link : Medium.t option;
  e_link_drop : dropper;  (** meaningful only when [e_link] is [Some] *)
}

(** Dense per-vertex runtime row, indexed by the (dense) vertex id. *)
type vertex_rt = {
  v_label : string;
  v_is_egress : bool;
  v_work_factor : float;  (** size multiplier: inflow / p(v) *)
  v_overhead : float;
  v_cap_limit : float;
      (** in-system bound for the queue-capacity invariant: the
          configured capacity for flat nodes, and
          groups × classes × capacity + engines under the hierarchical
          convention (waiting-only per-queue capacity) *)
  v_node : Ip_node.t option;
  v_drop : dropper;  (** meaningful only when [v_node] is [Some] *)
  v_out : int array;  (** edge_rt indices, in {!Lognic.Graph.out_edges} order *)
  v_out_total : float;  (** sum of out-edge deltas, in the same order *)
}

(** The node scheduler every finite-throughput vertex gets: one queue
    (per traffic class), or the SR-IOV two-stage arbiter with one queue
    group per tenant ({!Ip_node.create_hierarchical}). *)
type scheduler =
  | Flat
  | Hierarchical of { group_weights : int array; class_weights : int array array }

type t = {
  graph : G.t;
  engine : Engine.t;
  telemetry : Telemetry.t;
  vertices : vertex_rt array;
  edges : edge_rt array;
  interface : Medium.t;
  memory : Medium.t;
  media : Medium.t list;
      (** report order: interface, memory, then dedicated links in edge
          order *)
  nodes : (G.vertex * Ip_node.t) list;  (** graph order *)
  group_stride : int;
      (** classes per queue group under [Hierarchical]; 0 when [Flat] *)
  interface_drop : dropper;
  memory_drop : dropper;
  shed_drop : dropper;  (** the ingress drop site ({!Telemetry.Fault_burst}) *)
}

(** Splits one rng per node from [rng], in graph order, and interns the
    drop sites in a fixed order (interface, memory, ingress shed, links,
    nodes), which fixes the metrics instrument order. Raises
    [Invalid_argument] if the graph fails validation. *)
let compile engine ~rng ~telemetry ~scheduler ~track_lanes ~service_dist ~classes
    (hw : Lognic.Params.hardware) g =
  let c = G.Compiled.checked ~who:"Netsim.execute" g in
  (* Probability that a packet's walk crosses each vertex/edge under the
     delta-proportional routing: it scales per-packet quantities so
     aggregate loads match the model's W-fractions. *)
  let p_vertex, p_edge = G.Compiled.reach c in
  let interface = Medium.create engine ~label:"interface" ~bandwidth:hw.bw_interface () in
  let memory = Medium.create engine ~label:"memory" ~bandwidth:hw.bw_memory () in
  let links =
    Array.mapi
      (fun e bandwidth ->
        Option.map
          (fun bw ->
            Medium.create engine
              ~label:(Printf.sprintf "link-%d-%d" c.src.(e) c.dst.(e))
              ~bandwidth:bw ())
          bandwidth)
      c.bandwidth
  in
  let nodes = Hashtbl.create 16 in
  List.iter
    (fun (v : G.vertex) ->
      if v.service.throughput < infinity then begin
        let d = v.service.parallelism in
        let rate_per_engine =
          v.service.partition *. v.service.accel *. v.service.throughput
          /. float_of_int d
        in
        let node =
          match scheduler with
          | Hierarchical { group_weights; class_weights } ->
            Ip_node.create_hierarchical ~track_lanes engine ~rng:(N.Rng.split rng)
              ~label:v.label ~engines:d ~rate_per_engine
              ~entries_per_queue:v.service.queue_capacity ~group_weights
              ~class_weights ~service_dist
          | Flat ->
            Ip_node.create ~track_lanes engine ~rng:(N.Rng.split rng)
              ~label:v.label ~engines:d ~rate_per_engine
              ~queue_capacity:v.service.queue_capacity ~service_dist
        in
        Hashtbl.replace nodes v.id node
      end)
    (G.vertices g);
  let dropper site =
    { dk = Telemetry.drop_counter telemetry site; d_name = Telemetry.drop_site_name site }
  in
  let interface_drop = dropper (Telemetry.Medium_buffer "interface") in
  let memory_drop = dropper (Telemetry.Medium_buffer "memory") in
  let shed_drop = dropper Telemetry.Fault_burst in
  let edges =
    Array.mapi
      (fun e link ->
        {
          e_dst = c.dst.(e);
          e_delta = c.delta.(e);
          e_alpha = c.alpha.(e);
          e_beta = c.beta.(e);
          e_pe = p_edge.(e);
          e_link = link;
          e_link_drop =
            (match link with
            | Some l -> dropper (Telemetry.Medium_buffer (Medium.label l))
            | None -> interface_drop);
        })
      links
  in
  let vertices =
    Array.init (G.Compiled.vertex_count c) (fun id ->
        let node = Hashtbl.find_opt nodes id in
        {
          v_label = c.label.(id);
          v_is_egress = c.kind.(id) = G.Egress;
          (* processing-work multiplier: size * inflow / p(v) *)
          v_work_factor =
            (let p = p_vertex.(id) in
             if p <= 0. then 0. else c.inflow.(id) /. p);
          v_overhead = c.overhead.(id);
          v_cap_limit =
            (let cap = c.queue_capacity.(id) in
             match (scheduler, node) with
             | Hierarchical { group_weights; _ }, Some _ ->
               float_of_int
                 ((Array.length group_weights * classes * cap) + c.parallelism.(id))
             | _ -> float_of_int cap);
          v_node = node;
          v_drop =
            (if node <> None then
               dropper (Telemetry.Node_queue { node = c.label.(id); queue = 0 })
             else interface_drop);
          v_out = Array.sub c.out_edges c.out_start.(id) (c.out_start.(id + 1) - c.out_start.(id));
          v_out_total = c.out_total.(id);
        })
  in
  {
    graph = g;
    engine;
    telemetry;
    vertices;
    edges;
    interface;
    memory;
    media = interface :: memory :: List.filter_map Fun.id (Array.to_list links);
    nodes =
      List.filter_map
        (fun (v : G.vertex) -> Option.map (fun n -> (v, n)) (Hashtbl.find_opt nodes v.id))
        (G.vertices g);
    group_stride = (match scheduler with Flat -> 0 | Hierarchical _ -> classes);
    interface_drop;
    memory_drop;
    shed_drop;
  }

(** Open per-packet annotation a feature may attach to a flight. *)
type note = ..

type note += Plain

(** A pooled in-flight packet: the latency ledger lives in the [fs]
    float array ({!Telemetry.flight_slots} layout, unboxed stores), and
    each continuation of the walk is a per-flight closure built once
    when the flight is first allocated. Finished flights chain through
    [fl_next] onto a free list ([fl_self] is the pre-built [Some] link,
    so releasing allocates nothing), and after warm-up the walk of a
    packet allocates no flight state at all. *)
type flight = {
  fs : float array;
  mutable fl_id : int;
  mutable fl_klass : int;
  mutable fl_group : int;
      (** owning queue group (the tenant); 0 unless a feature sets it *)
  mutable fl_flow : int;  (** flow id; set by a flow-keyed feature *)
  mutable fl_fclass : int;  (** flow class (hot/warm/cold = 0..2); -1 = none *)
  mutable fl_vertex : G.vertex_id;  (** vertex being visited *)
  mutable fl_edge : int;  (** edge_rt index being traversed *)
  mutable fl_note : note;
  mutable fl_span_node : (lane:int -> queued:float -> service:float -> unit) option;
  mutable fl_span_medium : (label:string -> queued:float -> wire:float -> unit) option;
  mutable fl_span_overhead : (unit -> unit) option;
      (** span sinks handed to each hop; [None] on untraced flights so
          the hops short-circuit before boxing their float arguments *)
  mutable fl_next : flight option;
  mutable fl_self : flight option;
  fl_tally : float array option;
  fl_on_served : unit -> unit;
  fl_continue : unit -> unit;
  fl_via_memory : unit -> unit;
  fl_via_link : unit -> unit;
  fl_arrive : unit -> unit;
}

(** What optional features add to the walk. Each point is [None] unless
    some feature uses it. *)
type hooks = {
  arrival : (flight -> unit) option;
      (** every arrival, shed or not, after the flight is stamped *)
  admit : (flight -> bool) option;
      (** ingress admission: [false] sheds the packet at the ingress
          drop site; composed with [&&] in install order, so a later
          feature sees only admitted packets *)
  route : (flight -> bool) option;
      (** route override at a fan-out vertex: [true] means the hook set
          [fl_edge] and the delta-proportional draw is skipped *)
  node_admitted : (vertex_rt -> Ip_node.t -> unit) option;
  medium_admitted : (Medium.t -> unit) option;
      (** post-admission checks after a successful submit / transfer *)
  deliver : (flight -> unit) option;
      (** at egress, after the walk recorded the completion *)
  drop : (flight -> dropper -> unit) option;
}

let no_hooks =
  {
    arrival = None;
    admit = None;
    route = None;
    node_admitted = None;
    medium_admitted = None;
    deliver = None;
    drop = None;
  }

(** Merges hooks in list order. A point no feature uses stays [None] (one
    compare on the hot path); a point one feature uses is that feature's
    function itself. *)
let compose hs =
  let merge get join =
    match List.filter_map get hs with
    | [] -> None
    | f :: rest -> Some (List.fold_left join f rest)
  in
  (* Each join returns a named closure of the hook's own arity: calling a
     partial application of a merged [fun f g a b -> ...] with two
     arguments would allocate on every call. *)
  let seq f g =
    let h fl = f fl; g fl in
    h
  in
  let seq2 f g =
    let h a b = f a b; g a b in
    h
  in
  {
    arrival = merge (fun h -> h.arrival) seq;
    admit = merge (fun h -> h.admit) (fun f g -> let h fl = f fl && g fl in h);
    route = merge (fun h -> h.route) (fun f g -> let h fl = f fl || g fl in h);
    node_admitted = merge (fun h -> h.node_admitted) seq2;
    medium_admitted = merge (fun h -> h.medium_admitted) seq;
    deliver = merge (fun h -> h.deliver) seq;
    drop = merge (fun h -> h.drop) seq2;
  }

(** [walk nic hooks ~route_rng ~sizes] is the arrival callback for
    {!Traffic_gen}: [sizes.(klass)] is each class's packet size. *)
let walk nic hooks ~route_rng ~sizes =
  let { engine; telemetry; vertices = vrt; edges = ert; interface; memory; _ } = nic in
  let { arrival; admit; route; node_admitted; medium_admitted; deliver; drop } = hooks in
  let group_stride = nic.group_stride in
  let ingress =
    Array.of_list (List.map (fun (v : G.vertex) -> v.id) (G.ingress_vertices nic.graph))
  in
  (* Scratch cells for the routing scan: unboxed accumulator and index,
     so choosing an out-edge allocates nothing beyond the rng draw. The
     scan never calls out, so the cells cannot be clobbered reentrantly. *)
  let route_acc = Array.make 1 0. in
  let route_i = Array.make 1 0 in
  let free_flights = ref None in
  let admitted_at m = match medium_admitted with Some f -> f m | None -> () in
  let rec arrive_f fl =
    let vr = vrt.(fl.fl_vertex) in
    match vr.v_node with
    | None -> serve_f fl
    | Some node ->
      let work = fl.fs.(Telemetry.slot_size) *. vr.v_work_factor in
      if
        (if group_stride = 0 then
           Ip_node.submit node ?span:fl.fl_span_node ?tally:fl.fl_tally ~work
             fl.fl_on_served
         else
           Ip_node.submit_at node ?tally:fl.fl_tally ?span:fl.fl_span_node
             ~queue:((fl.fl_group * group_stride) + fl.fl_klass)
             ~work fl.fl_on_served)
      then (
        (* [submit] may have run the whole downstream walk synchronously
           (zero-work fast path), so the flight may already be recycled
           here: post-admission hooks consult only the node. *)
        match node_admitted with Some f -> f vr node | None -> ())
      else drop_flight fl vr.v_drop
  and serve_f fl =
    let vr = vrt.(fl.fl_vertex) in
    if vr.v_is_egress then begin
      fl.fs.(Telemetry.slot_now) <- Engine.now engine;
      Telemetry.record_completion_fs telemetry ~fs:fl.fs ~klass:fl.fl_klass;
      (match deliver with Some f -> f fl | None -> ());
      release_flight fl
    end
    else if vr.v_out_total <= 0. then
      (* Dead end without egress: validation rejects IPs like this, so
         only an ingress with zero-delta out-edges can reach here. *)
      release_flight fl
    else begin
      (match route with
      | Some r when r fl -> ()
      | _ ->
        (* Delta-proportional out-edge choice, same draw and the same
           accumulation order as the historical list walk. No draw can
           fall off the end of the cumulative table, by two independent
           protections: [target < v_out_total] and the scan's running
           sum add the per-edge deltas in the same left-to-right order,
           so the final partial sum equals [v_out_total] bit-for-bit
           even for pathological vectors like [1e-300; 1e-300; 1.0];
           and the [route_i.(0) < n - 1] bound clamps the index
           regardless, so the last branch absorbs any residual
           probability mass. *)
        let target = N.Rng.float route_rng vr.v_out_total in
        let outs = vr.v_out in
        let n = Array.length outs in
        route_acc.(0) <- 0.;
        route_i.(0) <- 0;
        while
          route_i.(0) < n - 1
          && (let acc = route_acc.(0) +. ert.(outs.(route_i.(0))).e_delta in
              route_acc.(0) <- acc;
              target >= acc)
        do
          route_i.(0) <- route_i.(0) + 1
        done;
        fl.fl_edge <- outs.(route_i.(0)));
      if vr.v_overhead > 0. then begin
        fl.fs.(Telemetry.slot_overhead) <-
          fl.fs.(Telemetry.slot_overhead) +. vr.v_overhead;
        (match fl.fl_span_overhead with Some f -> f () | None -> ());
        Engine.schedule_after engine ~delay:vr.v_overhead fl.fl_continue
      end
      else traverse_f fl
    end
  and traverse_f fl =
    let er = ert.(fl.fl_edge) in
    let bytes =
      if er.e_pe <= 0. then 0. else fl.fs.(Telemetry.slot_size) *. er.e_alpha /. er.e_pe
    in
    if
      Medium.transfer ?tally:fl.fl_tally ?span:fl.fl_span_medium interface ~bytes
        fl.fl_via_memory
    then admitted_at interface
    else drop_flight fl nic.interface_drop
  and via_memory_f fl =
    let er = ert.(fl.fl_edge) in
    let bytes =
      if er.e_pe <= 0. then 0. else fl.fs.(Telemetry.slot_size) *. er.e_beta /. er.e_pe
    in
    if
      Medium.transfer ?tally:fl.fl_tally ?span:fl.fl_span_medium memory ~bytes
        fl.fl_via_link
    then admitted_at memory
    else drop_flight fl nic.memory_drop
  and via_link_f fl =
    let er = ert.(fl.fl_edge) in
    match er.e_link with
    | Some link ->
      let bytes =
        if er.e_pe <= 0. then 0. else fl.fs.(Telemetry.slot_size) *. er.e_delta /. er.e_pe
      in
      if
        Medium.transfer ?tally:fl.fl_tally ?span:fl.fl_span_medium link ~bytes
          fl.fl_arrive
      then admitted_at link
      else drop_flight fl er.e_link_drop
    | None -> arrive_dst_f fl
  and arrive_dst_f fl =
    fl.fl_vertex <- ert.(fl.fl_edge).e_dst;
    arrive_f fl
  and drop_flight fl d =
    Telemetry.record_drop_counted telemetry ~born:fl.fs.(Telemetry.slot_born) d.dk;
    (match drop with Some f -> f fl d | None -> ());
    release_flight fl
  and release_flight fl =
    fl.fl_next <- !free_flights;
    free_flights := fl.fl_self
  in
  let new_flight () =
    let fs = Array.make Telemetry.flight_slots 0. in
    let rec fl =
      {
        fs;
        fl_id = 0;
        fl_klass = 0;
        fl_group = 0;
        fl_flow = -1;
        fl_fclass = -1;
        fl_vertex = 0;
        fl_edge = 0;
        fl_note = Plain;
        fl_span_node = None;
        fl_span_medium = None;
        fl_span_overhead = None;
        fl_next = None;
        fl_self = None;
        fl_tally = Some fs;
        fl_on_served = (fun () -> serve_f fl);
        fl_continue = (fun () -> traverse_f fl);
        fl_via_memory = (fun () -> via_memory_f fl);
        fl_via_link = (fun () -> via_link_f fl);
        fl_arrive = (fun () -> arrive_dst_f fl);
      }
    in
    fl.fl_self <- Some fl;
    fl
  in
  let next_id = ref 0 in
  fun klass ->
    let now = Engine.now engine in
    let size = sizes.(klass) in
    Telemetry.record_arrival telemetry ~now ~size;
    let fl =
      match !free_flights with
      | Some fl ->
        free_flights := fl.fl_next;
        fl.fl_next <- None;
        fl
      | None -> new_flight ()
    in
    let fs = fl.fs in
    fs.(Telemetry.slot_queueing) <- 0.;
    fs.(Telemetry.slot_service) <- 0.;
    fs.(Telemetry.slot_wire) <- 0.;
    fs.(Telemetry.slot_overhead) <- 0.;
    fs.(Telemetry.slot_born) <- now;
    fs.(Telemetry.slot_size) <- size;
    fl.fl_id <- !next_id;
    next_id := !next_id + 1;
    fl.fl_klass <- klass;
    (match arrival with Some f -> f fl | None -> ());
    if (match admit with Some f -> f fl | None -> true) then begin
      fl.fl_vertex <-
        (if Array.length ingress = 1 then ingress.(0)
         else ingress.(N.Rng.int route_rng (Array.length ingress)));
      arrive_f fl
    end
    else drop_flight fl nic.shed_drop

(** Schedules periodic read-only probes (["LABEL.depth"] / ["LABEL.busy"]
    per node, ["LABEL.backlog"] per medium) via {!Engine.every}. *)
let sample_series nic ~interval ~capacity ~until =
  let mk label probe =
    (Telemetry.Series.create ~capacity ~label ~interval (), probe)
  in
  let probes =
    List.concat_map
      (fun ((v : G.vertex), node) ->
        [
          mk (v.label ^ ".depth") (fun () -> float_of_int (Ip_node.in_system node));
          mk (v.label ^ ".busy") (fun () -> float_of_int (Ip_node.busy_engines node));
        ])
      nic.nodes
    @ List.map
        (fun m -> mk (Medium.label m ^ ".backlog") (fun () -> Medium.backlog m))
        nic.media
  in
  Engine.every nic.engine ~interval ~until (fun time ->
      List.iter
        (fun (s, probe) -> Telemetry.Series.add s ~time ~value:(probe ()))
        probes);
  List.map fst probes
