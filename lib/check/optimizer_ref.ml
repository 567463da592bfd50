(* The optimizer as a plain sequential search, kept as the
   differential-testing oracle for Lognic.Optimizer.optimize: every
   candidate is scored by a full list-walking evaluation of the assigned
   graph ([Model_ref.run]: no compiled scratch copy, no reused queueing
   terms, no parallel map), hits are counted
   on one LRU of canonical keys in request order, and the observer is
   called as each request is made. Props checks the two agree bit for
   bit: assignment, report, stats and the observation stream. *)

module O = Lognic.Optimizer
module N = Lognic_numerics

let carried (r : Lognic.Estimate.report) =
  Float.min r.throughput.attained r.latency.carried_rate

let score objective (r : Lognic.Estimate.report) =
  let attained = carried r and latency = r.latency.mean in
  match objective with
  | O.Maximize_throughput -> -.attained
  | O.Minimize_latency -> latency
  | O.Minimize_latency_min_throughput bound ->
    latency +. (1e15 *. Float.max 0. ((bound -. attained) /. bound))
  | O.Maximize_throughput_max_latency bound ->
    -.attained +. (1e15 *. Float.max 0. ((latency -. bound) /. bound))

let feasible objective (r : Lognic.Estimate.report) =
  match objective with
  | O.Maximize_throughput | O.Minimize_latency -> true
  | O.Minimize_latency_min_throughput bound -> carried r >= bound *. (1. -. 1e-6)
  | O.Maximize_throughput_max_latency bound ->
    r.latency.mean <= bound *. (1. +. 1e-6)

(* Assignments sorted by (kind, vertex), floats by bit pattern: two
   keys are equal iff the assignments build the same graph and
   traffic. *)
let canonical assignment =
  let key = function
    | O.Set_throughput (v, x) -> (0, v, [ x ])
    | O.Set_queue_capacity (v, n) -> (1, v, [ float_of_int n ])
    | O.Set_split (v, fs) -> (2, v, fs)
    | O.Set_partition (v, x) -> (3, v, [ x ])
    | O.Set_accel (v, x) -> (4, v, [ x ])
    | O.Set_ingress_rate x -> (5, -1, [ x ])
  in
  List.stable_sort
    (fun (r, v, _) (r', v', _) -> compare (r, v) (r', v'))
    (List.map key assignment)
  |> List.map (fun (r, v, xs) -> (r, v, List.map Int64.bits_of_float xs))

let optimize ?(rng = N.Rng.create ~seed:42) ?queue_model ?observer g ~hw
    ~traffic ~knobs objective =
  let memo = N.Lru.create ~capacity:4096 in
  let evaluations = ref 0 and memo_hits = ref 0 in
  let evaluate candidate =
    let sequence = !evaluations in
    incr evaluations;
    let key = canonical candidate in
    let ((s, _, _) as result), cache_hit =
      match N.Lru.find_opt memo key with
      | Some result ->
        incr memo_hits;
        (result, true)
      | None ->
        let g' = O.apply_assignment g candidate in
        let traffic' = O.apply_traffic traffic candidate in
        let report = Model_ref.run ?queue_model g' ~hw ~traffic:traffic' in
        let result = (score objective report, g', report) in
        N.Lru.add memo key result;
        (result, false)
    in
    Option.iter
      (fun f -> f { O.sequence; candidate; score = s; cache_hit })
      observer;
    result
  in
  (* continuous knobs: one slice of the flat vector each, in knob order *)
  let slices, dim =
    List.fold_left
      (fun (acc, offset) -> function
        | O.Out_split id ->
          let width = List.length (Lognic.Graph.out_edges g id) in
          ((id, `Split, offset, width, 0.01, 1.) :: acc, offset + width)
        | O.Partition (id, lo, hi) -> ((id, `Partition, offset, 1, lo, hi) :: acc, offset + 1)
        | O.Ingress_rate (lo, hi) -> ((-1, `Rate, offset, 1, lo, hi) :: acc, offset + 1)
        | O.Vertex_throughput _ | O.Queue_capacity _ | O.Accel _ -> (acc, offset))
      ([], 0) knobs
  in
  let slices = List.rev slices in
  let continuous x =
    List.map
      (fun (id, kind, offset, width, _, _) ->
        match kind with
        | `Split -> O.Set_split (id, Array.to_list (Array.sub x offset width))
        | `Partition -> O.Set_partition (id, x.(offset))
        | `Rate -> O.Set_ingress_rate x.(offset))
      slices
  in
  let axes =
    List.filter_map
      (function
        | O.Vertex_throughput (id, cs) ->
          Some (Array.map (fun c -> O.Set_throughput (id, c)) cs)
        | O.Queue_capacity (id, lo, hi) ->
          Some (Array.init (hi - lo + 1) (fun i -> O.Set_queue_capacity (id, lo + i)))
        | O.Accel (id, cs) -> Some (Array.map (fun c -> O.Set_accel (id, c)) cs)
        | O.Out_split _ | O.Partition _ | O.Ingress_rate _ -> None)
      knobs
  in
  let solve discrete =
    if dim = 0 then
      let s, g', report = evaluate discrete in
      (s, discrete, g', report)
    else begin
      let bound pick =
        let a = Array.make dim 0. in
        List.iter
          (fun (_, _, offset, width, lo, hi) ->
            Array.fill a offset width (pick lo hi))
          slices;
        a
      in
      let lower = bound (fun lo _ -> lo) and upper = bound (fun _ hi -> hi) in
      let mrng = N.Rng.split rng in
      let problem =
        {
          N.Constrained.objective =
            (fun x ->
              let s, _, _ =
                evaluate (discrete @ continuous (N.Vec.clamp ~lo:lower ~hi:upper x))
              in
              s);
          inequality = [];
          lower;
          upper;
        }
      in
      let sol = N.Constrained.multi_start ~rng:mrng problem in
      let assignment = discrete @ continuous sol.N.Constrained.x in
      let s, g', report = evaluate assignment in
      (s, assignment, g', report)
    end
  in
  (* odometer order: the last axis varies fastest; strict [<] keeps the
     first of equal scores *)
  let best = ref None in
  let rec walk prefix = function
    | [] -> (
      let ((s', _, _, _) as candidate) = solve (List.rev prefix) in
      match !best with
      | Some (s, _, _, _) when not (s' < s) -> ()
      | Some _ | None -> best := Some candidate)
    | axis :: rest -> Array.iter (fun a -> walk (a :: prefix) rest) axis
  in
  walk [] axes;
  match !best with
  | None -> assert false
  | Some (_, assignment, graph, report) ->
    {
      O.graph;
      assignment;
      report;
      feasible = feasible objective report;
      stats = { evaluations = !evaluations; memo_hits = !memo_hits };
    }
