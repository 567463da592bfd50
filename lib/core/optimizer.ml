module N = Lognic_numerics

type knob =
  | Vertex_throughput of Graph.vertex_id * float array
  | Queue_capacity of Graph.vertex_id * int * int
  | Out_split of Graph.vertex_id
  | Partition of Graph.vertex_id * float * float
  | Accel of Graph.vertex_id * float array
  | Ingress_rate of float * float

type objective =
  | Maximize_throughput
  | Minimize_latency
  | Minimize_latency_min_throughput of float
  | Maximize_throughput_max_latency of float

type assignment =
  | Set_throughput of Graph.vertex_id * float
  | Set_queue_capacity of Graph.vertex_id * int
  | Set_split of Graph.vertex_id * float list
  | Set_partition of Graph.vertex_id * float
  | Set_accel of Graph.vertex_id * float
  | Set_ingress_rate of float

type search_stats = { evaluations : int; memo_hits : int }

type observation = {
  sequence : int;
  candidate : assignment list;
  score : float;
  cache_hit : bool;
}

type solution = {
  graph : Graph.t;
  assignment : assignment list;
  report : Estimate.report;
  feasible : bool;
  stats : search_stats;
}

let apply_assignment g assignment =
  List.fold_left
    (fun g -> function
      | Set_throughput (id, p) ->
        Graph.update_service g id (fun s -> { s with Graph.throughput = p })
      | Set_queue_capacity (id, n) ->
        Graph.update_service g id (fun s -> { s with Graph.queue_capacity = n })
      | Set_split (id, fractions) -> Graph.scale_out_split g id fractions
      | Set_partition (id, gamma) ->
        Graph.update_service g id (fun s -> { s with Graph.partition = gamma })
      | Set_accel (id, a) ->
        Graph.update_service g id (fun s -> { s with Graph.accel = a })
      | Set_ingress_rate _ -> g)
    g assignment

let apply_traffic traffic assignment =
  List.fold_left
    (fun (t : Traffic.t) -> function
      | Set_ingress_rate rate -> { t with Traffic.rate }
      | Set_throughput _ | Set_queue_capacity _ | Set_split _ | Set_partition _
      | Set_accel _ ->
        t)
    traffic assignment

(* A large-but-finite constraint penalty: big enough to dominate any
   realistic latency (seconds) or negated throughput (-bytes/s). *)
let constraint_penalty = 1e15

(* Goals are judged on the carried rate: the Eq 4 ceiling further
   discounted by finite-queue blocking, so a configuration cannot "meet"
   a throughput bound by dropping packets. *)
let carried (report : Estimate.report) =
  Float.min report.throughput.Throughput.attained
    report.latency.Latency.carried_rate

let score objective ~carried:attained ~latency =
  match objective with
  | Maximize_throughput -> -.attained
  | Minimize_latency -> latency
  | Minimize_latency_min_throughput bound ->
    let gap = Float.max 0. ((bound -. attained) /. bound) in
    latency +. (constraint_penalty *. gap)
  | Maximize_throughput_max_latency bound ->
    let excess = Float.max 0. ((latency -. bound) /. bound) in
    -.attained +. (constraint_penalty *. excess)

let feasible objective (report : Estimate.report) =
  match objective with
  | Maximize_throughput | Minimize_latency -> true
  | Minimize_latency_min_throughput bound -> carried report >= bound *. (1. -. 1e-6)
  | Maximize_throughput_max_latency bound ->
    report.latency.Latency.mean <= bound *. (1. +. 1e-6)

let validate_knobs g knobs =
  if knobs = [] then invalid_arg "Optimizer.optimize: no knobs";
  List.iter
    (function
      | Vertex_throughput (id, candidates) ->
        ignore (Graph.vertex g id);
        if Array.length candidates = 0 then
          invalid_arg "Optimizer: empty candidate array"
      | Queue_capacity (id, lo, hi) ->
        ignore (Graph.vertex g id);
        if lo < 1 || lo > hi then invalid_arg "Optimizer: bad capacity range"
      | Out_split id ->
        ignore (Graph.vertex g id);
        if List.length (Graph.out_edges g id) < 2 then
          invalid_arg "Optimizer: Out_split needs >= 2 out-edges"
      | Partition (id, lo, hi) ->
        ignore (Graph.vertex g id);
        if lo <= 0. || hi > 1. || lo > hi then
          invalid_arg "Optimizer: partition range outside (0, 1]"
      | Accel (id, candidates) ->
        ignore (Graph.vertex g id);
        if Array.length candidates = 0 then
          invalid_arg "Optimizer: empty accel candidates";
        if Array.exists (fun a -> a <= 0.) candidates then
          invalid_arg "Optimizer: accel candidates must be > 0"
      | Ingress_rate (lo, hi) ->
        if lo <= 0. || lo > hi then invalid_arg "Optimizer: bad ingress range")
    knobs

(* Continuous knobs map onto a flat vector; each knob owns a slice. *)
type slice = {
  knob_index : int;
  offset : int;
  width : int;
  lower : float;
  upper : float;
}

let continuous_layout knobs g =
  let slices = ref [] and offset = ref 0 in
  List.iteri
    (fun i -> function
      | Out_split id ->
        let width = List.length (Graph.out_edges g id) in
        slices :=
          { knob_index = i; offset = !offset; width; lower = 0.01; upper = 1. }
          :: !slices;
        offset := !offset + width
      | Partition (_, lo, hi) | Ingress_rate (lo, hi) ->
        slices :=
          { knob_index = i; offset = !offset; width = 1; lower = lo; upper = hi }
          :: !slices;
        offset := !offset + 1
      | Vertex_throughput _ | Queue_capacity _ | Accel _ -> ())
    knobs;
  (List.rev !slices, !offset)

let assignment_of_continuous knobs slices x =
  List.map
    (fun s ->
      match List.nth knobs s.knob_index with
      | Out_split id ->
        Set_split (id, Array.to_list (Array.sub x s.offset s.width))
      | Partition (id, _, _) -> Set_partition (id, x.(s.offset))
      | Ingress_rate _ -> Set_ingress_rate x.(s.offset)
      | Vertex_throughput _ | Queue_capacity _ | Accel _ -> assert false)
    slices

let discrete_axes knobs =
  List.filter_map
    (function
      | Vertex_throughput (id, candidates) ->
        Some (`Throughput (id, candidates), Array.length candidates)
      | Queue_capacity (id, lo, hi) -> Some (`Capacity (id, lo), hi - lo + 1)
      | Accel (id, candidates) -> Some (`Accel (id, candidates), Array.length candidates)
      | Out_split _ | Partition _ | Ingress_rate _ -> None)
    knobs

let assignment_of_discrete axes idx =
  List.mapi
    (fun d (axis, _) ->
      match axis with
      | `Throughput (id, candidates) -> Set_throughput (id, candidates.(idx.(d)))
      | `Capacity (id, lo) -> Set_queue_capacity (id, lo + idx.(d))
      | `Accel (id, candidates) -> Set_accel (id, candidates.(idx.(d))))
    axes

(* Canonical memo key: assignments sorted by (kind, vertex), each
   written as fixed-width bytes — kind, vertex, value count, then every
   value (a float by its IEEE bit pattern) — so two assignments collide
   iff they produce the same graph and traffic. Nelder–Mead and
   golden-section refinement revisit configurations exactly (clamped
   boundary points, the final re-evaluation of the winning simplex
   vertex, duplicate discrete candidates), and each hit skips a model
   evaluation. *)
let memo_key assignment =
  let rank = function
    | Set_throughput _ -> 0
    | Set_queue_capacity _ -> 1
    | Set_split _ -> 2
    | Set_partition _ -> 3
    | Set_accel _ -> 4
    | Set_ingress_rate _ -> 5
  in
  let vid = function
    | Set_throughput (id, _)
    | Set_queue_capacity (id, _)
    | Set_split (id, _)
    | Set_partition (id, _)
    | Set_accel (id, _) ->
      id
    | Set_ingress_rate _ -> -1
  in
  let values = function
    | Set_throughput (_, x) | Set_partition (_, x) | Set_accel (_, x) | Set_ingress_rate x ->
      [ Int64.bits_of_float x ]
    | Set_queue_capacity (_, n) -> [ Int64.of_int n ]
    | Set_split (_, fs) -> List.map Int64.bits_of_float fs
  in
  let cmp a b = compare (rank a, vid a) (rank b, vid b) in
  let fields = List.map (fun a -> (rank a, vid a, values a)) (List.sort cmp assignment) in
  let b =
    Bytes.create
      (List.fold_left (fun n (_, _, vs) -> n + 17 + (8 * List.length vs)) 0 fields)
  in
  let pos = ref 0 in
  let put_int64 x =
    Bytes.set_int64_le b !pos x;
    pos := !pos + 8
  in
  List.iter
    (fun (rank, vid, vs) ->
      Bytes.set_uint8 b !pos rank;
      incr pos;
      put_int64 (Int64.of_int vid);
      put_int64 (Int64.of_int (List.length vs));
      List.iter put_int64 vs)
    fields;
  Bytes.unsafe_to_string b

(* Scratch copies of a search's compiled graph: a candidate's
   parameters are written into one and scored there. A search keeps
   its own free list, so it holds at most one copy per domain that
   scores concurrently, and every copy is dropped with the search. *)
type scratch = {
  ir : Graph.Compiled.t;
  terms : Latency.scratch;
}

type scratch_pool = {
  lock : Mutex.t;
  mutable free : scratch list;
}

let with_scratch pool ~model base f =
  let s =
    Mutex.protect pool.lock (fun () ->
        match pool.free with
        | s :: rest ->
          pool.free <- rest;
          Some s
        | [] -> None)
  in
  let s =
    match s with
    | Some s -> s
    | None -> { ir = Graph.Compiled.copy base; terms = Latency.scratch ~model base }
  in
  let r = f s in
  Mutex.protect pool.lock (fun () -> pool.free <- s :: pool.free);
  r

(* [apply_assignment] on the scratch copy: the same parameter updates,
   in the same order. *)
let apply_compiled ir assignment =
  List.iter
    (function
      | Set_throughput (id, p) ->
        Graph.Compiled.update_service ir id (fun s -> { s with Graph.throughput = p })
      | Set_queue_capacity (id, n) ->
        Graph.Compiled.update_service ir id (fun s -> { s with Graph.queue_capacity = n })
      | Set_split (id, fractions) -> Graph.Compiled.scale_out_split ir id fractions
      | Set_partition (id, gamma) ->
        Graph.Compiled.update_service ir id (fun s -> { s with Graph.partition = gamma })
      | Set_accel (id, a) ->
        Graph.Compiled.update_service ir id (fun s -> { s with Graph.accel = a })
      | Set_ingress_rate _ -> ())
    assignment

let optimize ?(rng = N.Rng.create ~seed:42) ?queue_model ?jobs ?observer g ~hw
    ~traffic ~knobs objective =
  validate_knobs g knobs;
  let slices, dim = continuous_layout knobs g in
  let axes = discrete_axes knobs in
  (* The search's evaluation context: the graph compiled and checked
     once. No assignment adds or removes a vertex or an edge, so each
     candidate only rewrites the parameters of a scratch copy
     from [pool] and is scored from the attained rate, mean latency and
     carried rate alone; the full report is built for the winner. *)
  let base = Graph.Compiled.checked ~who:"Optimizer.optimize" g in
  ignore (Graph.Compiled.routes base : Graph.Compiled.routes);
  let model = Option.value queue_model ~default:Latency.Mm1n_model in
  let pool = { lock = Mutex.create (); free = [] } in
  let score_of assignment =
    with_scratch pool ~model base (fun s ->
        Graph.Compiled.restore s.ir ~from:base;
        apply_compiled s.ir assignment;
        let traffic = apply_traffic traffic assignment in
        let attained = Throughput.attained s.ir ~hw ~traffic in
        let latency, carried_rate = Latency.summary s.terms s.ir ~hw ~traffic in
        score objective ~carried:(Float.min attained carried_rate) ~latency)
  in
  let run_candidate assignment =
    let g' = apply_assignment g assignment in
    (g', Estimate.run ?queue_model g' ~hw ~traffic:(apply_traffic traffic assignment))
  in
  (* Search accounting follows enumeration order, on the calling domain
     only: every request is replayed, in the order a sequential search
     makes them, through one LRU of canonical keys. [memo_hits],
     [sequence] and [cache_hit] are therefore the same at every [jobs],
     and the observer sees candidates in sequence order. *)
  let memo = N.Lru.create ~capacity:4096 in
  let evaluations = ref 0 and memo_hits = ref 0 in
  let record (key, candidate, score) =
    let sequence = !evaluations in
    incr evaluations;
    let cache_hit = Option.is_some (N.Lru.find_opt memo key) in
    if cache_hit then incr memo_hits else N.Lru.add memo key score;
    match observer with
    | None -> ()
    | Some f -> f { sequence; candidate; score; cache_hit }
  in
  (* For one discrete choice, settle the continuous knobs. [mrng] is
     that grid point's pre-split multi-start rng — split in enumeration
     order by the caller so parallel evaluation draws the exact
     sequence the sequential walk did. Runs on a worker domain: it
     reads [memo] only through [peek] (nothing writes it during a
     parallel map) and returns its requests for [record]. *)
  let solve_continuous mrng discrete_assignment =
    let local = N.Lru.create ~capacity:4096 and log = ref [] in
    let evaluate assignment =
      let key = memo_key assignment in
      let s =
        match N.Lru.find_opt local key with
        | Some s -> s
        | None ->
          let s =
            match N.Lru.peek memo key with
            | Some s -> s
            | None -> score_of assignment
          in
          N.Lru.add local key s;
          s
      in
      log := (key, assignment, s) :: !log;
      s
    in
    let bounds default =
      let a = Array.make dim default in
      List.iter
        (fun s ->
          for i = s.offset to s.offset + s.width - 1 do
            a.(i) <- (if default = 0.01 then s.lower else s.upper)
          done)
        slices;
      a
    in
    let lower = bounds 0.01 and upper = bounds 1. in
    let problem =
      {
        N.Constrained.objective =
          (fun x ->
            (* The simplex may step outside the box; clamp before
               applying so the graph update stays in-domain (the
               penalty still discourages the excursion). *)
            let x = N.Vec.clamp ~lo:lower ~hi:upper x in
            evaluate (discrete_assignment @ assignment_of_continuous knobs slices x));
        inequality = [];
        lower;
        upper;
      }
    in
    let sol = N.Constrained.multi_start ~rng:mrng problem in
    let assignment =
      discrete_assignment @ assignment_of_continuous knobs slices sol.N.Constrained.x
    in
    let s = evaluate assignment in
    (List.rev !log, (s, assignment))
  in
  let best = ref None in
  let consider ((s', _) as candidate) =
    match !best with
    | None -> best := Some candidate
    | Some (s, _) -> if s' < s then best := Some candidate
  in
  (* With no continuous knob a grid point is one candidate: deduplicate
     the chunk's canonical keys (and skip those the memo already
     holds), evaluate each unique one once, then record and fold the
     points in enumeration order. *)
  let discrete_chunk points =
    let entries =
      List.map
        (fun idx ->
          let a = assignment_of_discrete axes idx in
          (memo_key a, a))
        points
    in
    let known = Hashtbl.create 64 and pending = ref [] in
    List.iter
      (fun (key, a) ->
        if not (Hashtbl.mem known key) then
          match N.Lru.peek memo key with
          | Some s -> Hashtbl.add known key s
          | None ->
            Hashtbl.add known key nan;
            pending := (key, a) :: !pending)
      entries;
    let pending = List.rev !pending in
    let scores = N.Parallel.map ?jobs (fun (_, a) -> score_of a) pending in
    List.iter2 (fun (key, _) s -> Hashtbl.replace known key s) pending scores;
    List.iter
      (fun (key, a) ->
        let s = Hashtbl.find known key in
        record (key, a, s);
        consider (s, a))
      entries
  in
  let continuous_chunk points =
    let points = List.map (fun idx -> (idx, N.Rng.split rng)) points in
    List.iter
      (fun (log, candidate) ->
        List.iter record log;
        consider candidate)
      (N.Parallel.map ?jobs
         (fun (idx, mrng) -> solve_continuous mrng (assignment_of_discrete axes idx))
         points)
  in
  (* Exhaustive grid over the discrete axes (one empty point when there
     are none), evaluated [jobs]-wide: grid points are enumerated in
     odometer order, chunked so huge spaces never materialize at once,
     and folded in order with a strict [<] — the same winner the
     sequential [Grid.minimize_ints] walk picked. *)
  let ranges = Array.of_list (List.map (fun (_, n) -> (0, n - 1)) axes) in
  let total = Array.fold_left (fun acc (lo, hi) -> acc * (hi - lo + 1)) 1 ranges in
  if total > 10_000_000 then
    invalid_arg "Optimizer.optimize: discrete search space too large";
  let n_axes = Array.length ranges in
  let current = Array.map fst ranges in
  let advance () =
    let rec go i =
      if i < 0 then false
      else begin
        let _, hi = ranges.(i) in
        if current.(i) < hi then begin
          current.(i) <- current.(i) + 1;
          true
        end
        else begin
          current.(i) <- fst ranges.(i);
          go (i - 1)
        end
      end
    in
    go (n_axes - 1)
  in
  let exhausted = ref false in
  while not !exhausted do
    let chunk = ref [] and filled = ref 0 in
    while (not !exhausted) && !filled < 1024 do
      chunk := Array.copy current :: !chunk;
      incr filled;
      if not (advance ()) then exhausted := true
    done;
    if dim = 0 then discrete_chunk (List.rev !chunk)
    else continuous_chunk (List.rev !chunk)
  done;
  match !best with
  | None -> assert false
  | Some (_, assignment) ->
    let graph, report = run_candidate assignment in
    {
      graph;
      assignment;
      report;
      feasible = feasible objective report;
      stats = { evaluations = !evaluations; memo_hits = !memo_hits };
    }

let pareto ?rng ?queue_model ?jobs ?observer ?(points = 8) g ~hw ~traffic
    ~knobs =
  (* anchor the bound range at the two single-objective extremes *)
  let fastest =
    optimize ?rng ?queue_model ?jobs ?observer g ~hw ~traffic ~knobs
      Minimize_latency
  in
  let widest =
    optimize ?rng ?queue_model ?jobs ?observer g ~hw ~traffic ~knobs
      Maximize_throughput
  in
  let lo = fastest.report.latency.Latency.mean in
  let hi = widest.report.latency.Latency.mean in
  if not (Float.is_finite lo && lo > 0.) then
    invalid_arg "Optimizer.pareto: degenerate latency range";
  let hi = Float.max (lo *. 1.001) (if Float.is_finite hi then hi else lo *. 100.) in
  let bounds =
    List.init points (fun i ->
        let t = float_of_int i /. float_of_int (max 1 (points - 1)) in
        lo *. ((hi /. lo) ** t))
  in
  List.filter_map
    (fun bound ->
      let s =
        optimize ?rng ?queue_model ?jobs ?observer g ~hw ~traffic ~knobs
          (Maximize_throughput_max_latency bound)
      in
      if s.feasible then Some (bound, s) else None)
    bounds

let pp_assignment ppf = function
  | Set_throughput (id, p) -> Fmt.pf ppf "vertex %d: P <- %.4g B/s" id p
  | Set_queue_capacity (id, n) -> Fmt.pf ppf "vertex %d: N <- %d" id n
  | Set_split (id, fs) ->
    let total = List.fold_left ( +. ) 0. fs in
    Fmt.pf ppf "vertex %d: split <- [%a]" id
      Fmt.(list ~sep:(any "; ") (fun ppf f -> Fmt.pf ppf "%.3f" (f /. total)))
      fs
  | Set_partition (id, gamma) -> Fmt.pf ppf "vertex %d: gamma <- %.3f" id gamma
  | Set_accel (id, a) -> Fmt.pf ppf "vertex %d: A <- %.3f" id a
  | Set_ingress_rate rate -> Fmt.pf ppf "BW_in <- %.4g B/s" rate
