type vertex_id = int
type kind = Ingress | Egress | Ip

type service = {
  throughput : float;
  parallelism : int;
  queue_capacity : int;
  overhead : float;
  accel : float;
  partition : float;
}

let default_service =
  {
    throughput = infinity;
    parallelism = 1;
    queue_capacity = 64;
    overhead = 0.;
    accel = 1.;
    partition = 1.;
  }

let service ?(parallelism = 1) ?(queue_capacity = 64) ?(overhead = 0.)
    ?(accel = 1.) ?(partition = 1.) ~throughput () =
  if throughput <= 0. then invalid_arg "Graph.service: throughput must be > 0";
  if parallelism < 1 then invalid_arg "Graph.service: parallelism must be >= 1";
  if queue_capacity < 1 then
    invalid_arg "Graph.service: queue_capacity must be >= 1";
  if overhead < 0. then invalid_arg "Graph.service: overhead must be >= 0";
  if accel <= 0. then invalid_arg "Graph.service: accel must be > 0";
  if partition <= 0. || partition > 1. then
    invalid_arg "Graph.service: partition must be in (0, 1]";
  { throughput; parallelism; queue_capacity; overhead; accel; partition }

type vertex = { id : vertex_id; kind : kind; label : string; service : service }

type edge = {
  src : vertex_id;
  dst : vertex_id;
  delta : float;
  alpha : float;
  beta : float;
  bandwidth : float option;
}

type t = { verts : vertex list; edgs : edge list }
(* Both lists are kept in insertion order; graphs have at most tens of
   vertices, so lists beat the bookkeeping of maps here. *)

let empty = { verts = []; edgs = [] }

let add_vertex ~kind ~label ~service g =
  let id = List.length g.verts in
  ({ g with verts = g.verts @ [ { id; kind; label; service } ] }, id)

let vertex g id =
  match List.find_opt (fun v -> v.id = id) g.verts with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Graph.vertex: unknown id %d" id)

let mem_vertex g id = List.exists (fun v -> v.id = id) g.verts

let add_edge ?(delta = 1.) ?(alpha = 0.) ?(beta = 0.) ?bandwidth ~src ~dst g =
  if not (mem_vertex g src) then invalid_arg "Graph.add_edge: unknown src";
  if not (mem_vertex g dst) then invalid_arg "Graph.add_edge: unknown dst";
  if src = dst then invalid_arg "Graph.add_edge: self loop";
  if delta < 0. || alpha < 0. || beta < 0. then
    invalid_arg "Graph.add_edge: negative parameter";
  (match bandwidth with
  | Some bw when bw <= 0. -> invalid_arg "Graph.add_edge: bandwidth must be > 0"
  | _ -> ());
  if List.exists (fun e -> e.src = src && e.dst = dst) g.edgs then
    invalid_arg "Graph.add_edge: duplicate edge";
  { g with edgs = g.edgs @ [ { src; dst; delta; alpha; beta; bandwidth } ] }

let vertices g = g.verts
let edges g = g.edgs
let edge g ~src ~dst = List.find_opt (fun e -> e.src = src && e.dst = dst) g.edgs
let in_edges g id = List.filter (fun e -> e.dst = id) g.edgs
let out_edges g id = List.filter (fun e -> e.src = id) g.edgs
let in_degree g id = List.length (in_edges g id)
let ingress_vertices g = List.filter (fun v -> v.kind = Ingress) g.verts
let egress_vertices g = List.filter (fun v -> v.kind = Egress) g.verts
let vertex_count g = List.length g.verts
let find_vertex g ~label = List.find_opt (fun v -> v.label = label) g.verts

let set_service g id service =
  ignore (vertex g id);
  {
    g with
    verts = List.map (fun v -> if v.id = id then { v with service } else v) g.verts;
  }

let update_service g id f = set_service g id (f (vertex g id).service)

let set_edge_params ?delta ?alpha ?beta ?bandwidth ~src ~dst g =
  match edge g ~src ~dst with
  | None -> invalid_arg "Graph.set_edge_params: no such edge"
  | Some _ ->
    let update e =
      if e.src = src && e.dst = dst then
        {
          e with
          delta = Option.value delta ~default:e.delta;
          alpha = Option.value alpha ~default:e.alpha;
          beta = Option.value beta ~default:e.beta;
          bandwidth = Option.value bandwidth ~default:e.bandwidth;
        }
      else e
    in
    { g with edgs = List.map update g.edgs }

let remove_edge ~src ~dst g =
  match edge g ~src ~dst with
  | None -> invalid_arg "Graph.remove_edge: no such edge"
  | Some _ ->
    { g with edgs = List.filter (fun e -> not (e.src = src && e.dst = dst)) g.edgs }

(* The fraction checks and arithmetic shared by both [scale_out_split]s:
   rejects a degenerate vector naming the vertex ([at]), and returns
   each new δ for the current out-edge δs (same operations, same
   order). *)
let split_deltas ~at ~total_delta fractions =
  (* Degenerate fraction vectors would otherwise reach the division by
     [total_fraction] below and poison every out-edge with NaN δ/α/β
     (NaN passes both the [f < 0.] and [total <= 0.] tests). Name the
     vertex in every rejection so the caller can find the offending
     split — the feedback-split iteration feeds computed fractions in
     here, and "zero split" alone does not say where. *)
  if List.exists (fun f -> not (Float.is_finite f)) fractions then
    invalid_arg
      (Printf.sprintf "Graph.scale_out_split: non-finite fraction at %s" (at ()));
  if List.exists (fun f -> f < 0.) fractions then
    invalid_arg
      (Printf.sprintf "Graph.scale_out_split: negative fraction at %s" (at ()));
  let total_fraction = List.fold_left ( +. ) 0. fractions in
  if total_fraction <= 0. then
    invalid_arg
      (Printf.sprintf "Graph.scale_out_split: all-zero fractions at %s" (at ()));
  List.map (fun f -> total_delta *. f /. total_fraction) fractions

(* preserve the edge's medium mix: alpha/beta stay proportional to
   delta *)
let mix_ratio ~old_delta new_delta = if old_delta > 0. then new_delta /. old_delta else 0.

let scale_out_split g id fractions =
  let outs = out_edges g id in
  if List.length outs <> List.length fractions then
    invalid_arg "Graph.scale_out_split: length mismatch";
  let at () =
    match List.find_opt (fun v -> v.id = id) g.verts with
    | Some v -> Printf.sprintf "%S (vertex %d)" v.label id
    | None -> Printf.sprintf "vertex %d" id
  in
  let total_delta = List.fold_left (fun acc e -> acc +. e.delta) 0. outs in
  let assignments =
    List.map2
      (fun e new_delta ->
        let ratio = mix_ratio ~old_delta:e.delta new_delta in
        (e, new_delta, e.alpha *. ratio, e.beta *. ratio))
      outs
      (split_deltas ~at ~total_delta fractions)
  in
  let update e =
    match
      List.find_opt (fun (e', _, _, _) -> e'.src = e.src && e'.dst = e.dst) assignments
    with
    | Some (_, d, a, b) -> { e with delta = d; alpha = a; beta = b }
    | None -> e
  in
  { g with edgs = List.map update g.edgs }

let path_limit = 10_000

exception Path_limit_exceeded of int

module Compiled = struct
  type routes = {
    paths : vertex_id array array;
    via : int array array;
    on_path : bool array;
    truncated : bool;
  }

  type t = {
    kind : kind array;
    label : string array;
    throughput : float array;
    parallelism : int array;
    queue_capacity : int array;
    overhead : float array;
    accel : float array;
    partition : float array;
    src : vertex_id array;
    dst : vertex_id array;
    delta : float array;
    alpha : float array;
    beta : float array;
    bandwidth : float option array;
    out_start : int array;
    out_edges : int array;
    in_start : int array;
    in_edges : int array;
    inflow : float array;
    out_total : float array;
    order : vertex_id array option;
    routes : routes Lazy.t;
  }

  let vertex_count c = Array.length c.kind
  let edge_count c = Array.length c.src
  let in_degree c v = c.in_start.(v + 1) - c.in_start.(v)

  (* Σδ over the CSR slice [lo, hi) of [edges], left to right from 0 —
     the fold [List.fold_left] makes over the same edges in insertion
     order, so every total is bit-identical to the list walk's. *)
  let sum_delta delta edges lo hi =
    let acc = ref 0. in
    for k = lo to hi - 1 do
      acc := !acc +. delta.(edges.(k))
    done;
    !acc

  let inflow_of ~kind ~delta ~in_start ~in_edges v =
    match kind.(v) with
    | Ingress -> 1.
    | Egress | Ip -> sum_delta delta in_edges in_start.(v) in_start.(v + 1)

  (* CSR rows keyed by [key.(e)], each row in edge-insertion order. *)
  let csr n key =
    let start = Array.make (n + 1) 0 in
    Array.iter (fun v -> start.(v + 1) <- start.(v + 1) + 1) key;
    for v = 1 to n do
      start.(v) <- start.(v) + start.(v - 1)
    done;
    let fill = Array.sub start 0 n and rows = Array.make (Array.length key) 0 in
    Array.iteri
      (fun e v ->
        rows.(fill.(v)) <- e;
        fill.(v) <- fill.(v) + 1)
      key;
    (start, rows)

  (* Kahn's algorithm with a FIFO ready queue: sources in vertex order,
     then each vertex's newly-ready successors in edge order. The order
     array doubles as the queue. *)
  let topological ~out_start ~out_edges ~dst ~in_start n =
    let indeg = Array.init n (fun v -> in_start.(v + 1) - in_start.(v)) in
    let order = Array.make n 0 and head = ref 0 and tail = ref 0 in
    let ready v =
      order.(!tail) <- v;
      incr tail
    in
    for v = 0 to n - 1 do
      if indeg.(v) = 0 then ready v
    done;
    while !head < !tail do
      let v = order.(!head) in
      incr head;
      for k = out_start.(v) to out_start.(v + 1) - 1 do
        let w = dst.(out_edges.(k)) in
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then ready w
      done
    done;
    if !tail = n then Some order else None

  (* Depth-first ingress→egress walk: ingresses in vertex order,
     out-edges in insertion order, stopping at the first egress reached.
     Keeps the first [limit] paths and flags a further one. *)
  let enumerate ~limit ~kind ~out_start ~out_edges ~dst =
    let exception Stop in
    let on_path = Array.make (Array.length kind) false in
    let found = ref [] and count = ref 0 and truncated = ref false in
    let rec walk v hops via =
      if kind.(v) = Egress then begin
        if !count >= limit then begin
          truncated := true;
          raise Stop
        end;
        incr count;
        let hops = Array.of_list (List.rev (v :: hops)) in
        Array.iter (fun u -> on_path.(u) <- true) hops;
        found := (hops, Array.of_list (List.rev via)) :: !found
      end
      else
        for k = out_start.(v) to out_start.(v + 1) - 1 do
          let e = out_edges.(k) in
          walk dst.(e) (v :: hops) (e :: via)
        done
    in
    (try Array.iteri (fun v k -> if k = Ingress then walk v [] []) kind
     with Stop -> ());
    let found = Array.of_list (List.rev !found) in
    {
      paths = Array.map fst found;
      via = Array.map snd found;
      on_path;
      truncated = !truncated;
    }

  let compile_with ~limit g =
    let verts : vertex array = Array.of_list g.verts in
    let edgs : edge array = Array.of_list g.edgs in
    let n = Array.length verts in
    let field f = Array.map (fun (v : vertex) -> f v.service) verts in
    let kind = Array.map (fun (v : vertex) -> v.kind) verts in
    let src = Array.map (fun (e : edge) -> e.src) edgs in
    let dst = Array.map (fun (e : edge) -> e.dst) edgs in
    let delta = Array.map (fun (e : edge) -> e.delta) edgs in
    let out_start, out_edges = csr n src and in_start, in_edges = csr n dst in
    {
      kind;
      label = Array.map (fun (v : vertex) -> v.label) verts;
      throughput = field (fun s -> s.throughput);
      parallelism = field (fun s -> s.parallelism);
      queue_capacity = field (fun s -> s.queue_capacity);
      overhead = field (fun s -> s.overhead);
      accel = field (fun s -> s.accel);
      partition = field (fun s -> s.partition);
      src;
      dst;
      delta;
      alpha = Array.map (fun (e : edge) -> e.alpha) edgs;
      beta = Array.map (fun (e : edge) -> e.beta) edgs;
      bandwidth = Array.map (fun (e : edge) -> e.bandwidth) edgs;
      out_start;
      out_edges;
      in_start;
      in_edges;
      inflow = Array.init n (inflow_of ~kind ~delta ~in_start ~in_edges);
      out_total =
        Array.init n (fun v -> sum_delta delta out_edges out_start.(v) out_start.(v + 1));
      order = topological ~out_start ~out_edges ~dst ~in_start n;
      routes = lazy (enumerate ~limit ~kind ~out_start ~out_edges ~dst);
    }

  let compile g = compile_with ~limit:path_limit g

  let errors c =
    let errors = ref [] in
    let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
    let has k = Array.exists (fun k' -> k' = k) c.kind in
    if not (has Ingress) then err "graph has no ingress vertex";
    if not (has Egress) then err "graph has no egress vertex";
    let dag = Option.is_some c.order in
    if not dag then err "graph has a cycle";
    if has Ingress && has Egress && dag then begin
      let n = vertex_count c in
      let sweep ~from ~start ~rows ~ends =
        let seen = Array.make n false in
        let rec go v =
          if not seen.(v) then begin
            seen.(v) <- true;
            for k = start.(v) to start.(v + 1) - 1 do
              go ends.(rows.(k))
            done
          end
        in
        Array.iteri (fun v k -> if k = from then go v) c.kind;
        seen
      in
      let fwd =
        sweep ~from:Ingress ~start:c.out_start ~rows:c.out_edges ~ends:c.dst
      in
      let bwd = sweep ~from:Egress ~start:c.in_start ~rows:c.in_edges ~ends:c.src in
      Array.iteri
        (fun v k ->
          if k = Ip then begin
            if not fwd.(v) then
              err "vertex %d (%s) unreachable from any ingress" v c.label.(v);
            if not bwd.(v) then
              err "vertex %d (%s) cannot reach any egress" v c.label.(v)
          end)
        c.kind
    end;
    List.rev !errors

  let checked ~who g =
    let c = compile g in
    match errors c with
    | [] -> c
    | errors -> invalid_arg (who ^ ": invalid graph: " ^ String.concat "; " errors)

  let routes c = Lazy.force c.routes
  let truncated c = (routes c).truncated

  let reach c =
    let p_vertex = Array.make (vertex_count c) 0. in
    let p_edge = Array.make (edge_count c) 0. in
    let ingresses = Array.fold_left (fun n k -> if k = Ingress then n + 1 else n) 0 c.kind in
    let share = 1. /. float_of_int ingresses in
    Array.iteri (fun v k -> if k = Ingress then p_vertex.(v) <- share) c.kind;
    let order =
      match c.order with
      | Some order -> order
      | None -> invalid_arg "Graph.Compiled.reach: graph has a cycle"
    in
    Array.iter
      (fun v ->
        let p = p_vertex.(v) and total = c.out_total.(v) in
        if total > 0. then
          for k = c.out_start.(v) to c.out_start.(v + 1) - 1 do
            let e = c.out_edges.(k) in
            let pe = p *. c.delta.(e) /. total in
            p_edge.(e) <- pe;
            p_vertex.(c.dst.(e)) <- p_vertex.(c.dst.(e)) +. pe
          done)
      order;
    (p_vertex, p_edge)

  let copy c =
    {
      c with
      throughput = Array.copy c.throughput;
      parallelism = Array.copy c.parallelism;
      queue_capacity = Array.copy c.queue_capacity;
      overhead = Array.copy c.overhead;
      accel = Array.copy c.accel;
      partition = Array.copy c.partition;
      delta = Array.copy c.delta;
      alpha = Array.copy c.alpha;
      beta = Array.copy c.beta;
      bandwidth = Array.copy c.bandwidth;
      inflow = Array.copy c.inflow;
      out_total = Array.copy c.out_total;
    }

  let restore c ~from =
    let blit a b = Array.blit a 0 b 0 (Array.length a) in
    blit from.throughput c.throughput;
    blit from.parallelism c.parallelism;
    blit from.queue_capacity c.queue_capacity;
    blit from.overhead c.overhead;
    blit from.accel c.accel;
    blit from.partition c.partition;
    blit from.delta c.delta;
    blit from.alpha c.alpha;
    blit from.beta c.beta;
    blit from.bandwidth c.bandwidth;
    blit from.inflow c.inflow;
    blit from.out_total c.out_total

  let service c v : service =
    {
      throughput = c.throughput.(v);
      parallelism = c.parallelism.(v);
      queue_capacity = c.queue_capacity.(v);
      overhead = c.overhead.(v);
      accel = c.accel.(v);
      partition = c.partition.(v);
    }

  let update_service c v f =
    let (s : service) = f (service c v) in
    c.throughput.(v) <- s.throughput;
    c.parallelism.(v) <- s.parallelism;
    c.queue_capacity.(v) <- s.queue_capacity;
    c.overhead.(v) <- s.overhead;
    c.accel.(v) <- s.accel;
    c.partition.(v) <- s.partition

  let set_bandwidth c e bw = c.bandwidth.(e) <- bw

  let scale_out_split c v fractions =
    let lo = c.out_start.(v) and hi = c.out_start.(v + 1) in
    if hi - lo <> List.length fractions then
      invalid_arg "Graph.scale_out_split: length mismatch";
    let at () = Printf.sprintf "%S (vertex %d)" c.label.(v) v in
    let deltas = split_deltas ~at ~total_delta:c.out_total.(v) fractions in
    List.iteri
      (fun k new_delta ->
        let e = c.out_edges.(lo + k) in
        let ratio = mix_ratio ~old_delta:c.delta.(e) new_delta in
        c.delta.(e) <- new_delta;
        c.alpha.(e) <- c.alpha.(e) *. ratio;
        c.beta.(e) <- c.beta.(e) *. ratio)
      deltas;
    c.out_total.(v) <- sum_delta c.delta c.out_edges lo hi;
    for k = lo to hi - 1 do
      let w = c.dst.(c.out_edges.(k)) in
      c.inflow.(w) <-
        inflow_of ~kind:c.kind ~delta:c.delta ~in_start:c.in_start ~in_edges:c.in_edges w
    done
end

let topological_order g =
  Option.map Array.to_list (Compiled.compile g).Compiled.order

let is_dag g = Option.is_some (Compiled.compile g).Compiled.order

let paths_capped ?(limit = path_limit) g =
  let r = Compiled.routes (Compiled.compile_with ~limit g) in
  ( Array.to_list (Array.map Array.to_list r.paths),
    if r.truncated then `Truncated else `Complete )

let paths ?(limit = path_limit) g =
  match paths_capped ~limit g with
  | paths, `Complete -> paths
  | _, `Truncated -> raise (Path_limit_exceeded limit)

let validate g = match Compiled.errors (Compiled.compile g) with [] -> Ok () | es -> Error es

let pp_kind ppf = function
  | Ingress -> Fmt.string ppf "ingress"
  | Egress -> Fmt.string ppf "egress"
  | Ip -> Fmt.string ppf "ip"

let pp ppf g =
  Fmt.pf ppf "@[<v>graph (%d vertices, %d edges)" (vertex_count g)
    (List.length g.edgs);
  List.iter
    (fun v ->
      Fmt.pf ppf "@,  v%d %a %S P=%g D=%d N=%d O=%g A=%g gamma=%g" v.id pp_kind
        v.kind v.label v.service.throughput v.service.parallelism
        v.service.queue_capacity v.service.overhead v.service.accel
        v.service.partition)
    g.verts;
  List.iter
    (fun (e : edge) ->
      Fmt.pf ppf "@,  e %d->%d delta=%g alpha=%g beta=%g%a" e.src e.dst e.delta
        e.alpha e.beta
        Fmt.(option (fun ppf bw -> Fmt.pf ppf " bw=%g" bw))
        e.bandwidth)
    g.edgs;
  Fmt.pf ppf "@]"
