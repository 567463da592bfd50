(** Optimizer mode (§3.8, Figure 4-b).

    The optimizer searches LogNIC's configurable parameters (Table 2's
    CONF rows) for an assignment meeting a performance goal, evaluating
    candidates through the analytical model. Discrete knobs (candidate
    IP throughputs — e.g. "how many NIC cores", queue credits) are
    enumerated exhaustively; continuous knobs (traffic splits, node
    partitions) run through the penalty-constrained Nelder–Mead of
    {!Lognic_numerics.Constrained} with multi-start. This mirrors the
    paper's SLSQP-based solver at the fidelity our case studies need;
    like the paper's, the result may be a local optimum for non-convex
    continuous landscapes. *)

type knob =
  | Vertex_throughput of Graph.vertex_id * float array
      (** candidate values for P_vi, e.g. achievable core allocations *)
  | Queue_capacity of Graph.vertex_id * int * int
      (** inclusive credit range for N_vi *)
  | Out_split of Graph.vertex_id
      (** re-balance the δ (and proportional α/β) of the vertex's
          out-edges — traffic steering *)
  | Partition of Graph.vertex_id * float * float
      (** γ_vi within the given inclusive range *)
  | Accel of Graph.vertex_id * float array
      (** candidate kernel-acceleration factors A_i (Eq 5's tunable
          "what if we optimized this kernel" parameter) *)
  | Ingress_rate of float * float
      (** admissible BW_in range — e.g. find the highest offered load
          meeting a latency bound (admission control) *)

type objective =
  | Maximize_throughput
  | Minimize_latency
  | Minimize_latency_min_throughput of float
      (** minimize mean latency subject to attained ≥ the bound *)
  | Maximize_throughput_max_latency of float
      (** maximize attained subject to mean latency ≤ the bound *)

type assignment =
  | Set_throughput of Graph.vertex_id * float
  | Set_queue_capacity of Graph.vertex_id * int
  | Set_split of Graph.vertex_id * float list
  | Set_partition of Graph.vertex_id * float
  | Set_accel of Graph.vertex_id * float
  | Set_ingress_rate of float

type search_stats = {
  evaluations : int;  (** model evaluations requested by the search *)
  memo_hits : int;
      (** of those, served from the LRU memo of canonicalized knob
          assignments instead of re-scoring the candidate *)
}
(** Both counts are a function of the search alone, the same at every
    [jobs]: they are what a sequential walk of the candidates in
    enumeration order counts against a 4096-entry LRU — the first
    request of a canonical assignment is the miss, a repeat is a hit
    unless 4096 newer distinct assignments evicted it in between. *)

type solution = {
  graph : Graph.t;  (** the base graph with the assignment applied *)
  assignment : assignment list;
  report : Estimate.report;  (** model outputs on the optimized graph *)
  feasible : bool;  (** constraint (if any) met *)
  stats : search_stats;  (** search effort and memo hit-rate *)
}

type observation = {
  sequence : int;
      (** 0-based evaluation index in enumeration order (the value of
          the [evaluations] counter when this candidate was
          requested) *)
  candidate : assignment list;  (** the knob assignment evaluated *)
  score : float;  (** objective value (lower is better, as searched) *)
  cache_hit : bool;  (** served from the memo, no model run *)
}

val apply_assignment : Graph.t -> assignment list -> Graph.t
(** Graph-side effects of an assignment ([Set_ingress_rate] entries are
    ignored here — see {!apply_traffic}). *)

val apply_traffic : Traffic.t -> assignment list -> Traffic.t
(** Traffic-side effects ([Set_ingress_rate]). *)

val optimize :
  ?rng:Lognic_numerics.Rng.t ->
  ?queue_model:Latency.queue_model ->
  ?jobs:int ->
  ?observer:(observation -> unit) ->
  Graph.t ->
  hw:Params.hardware ->
  traffic:Traffic.t ->
  knobs:knob list ->
  objective ->
  solution
(** Raises [Invalid_argument] on an empty knob list, an empty candidate
    array, or knobs referring to unknown vertices. The [rng] (default
    seed 42) only affects the continuous multi-start. [jobs] (default:
    {!Lognic_numerics.Parallel.default_jobs}) evaluates the exhaustive
    discrete grid that many domains wide; the result is identical at
    every job count (grid points are independent, folded in enumeration
    order, and the multi-start rngs are pre-split in that same order).

    [observer] fires once per candidate evaluation — memo hits
    included — with the candidate, its objective score, its cache-hit
    status, and a dense sequence index; {!Lognic_sim.Search_log} folds
    these into a convergence log. It is called on the calling domain,
    in sequence order, once the candidates of a grid chunk have been
    evaluated, so the stream is byte-identical at every [jobs]. The
    observer never influences the search result.

    Each call compiles and checks the graph once
    ({!Graph.Compiled.checked}; no assignment changes its shape). A
    candidate is applied by rewriting the parameters of a scratch copy
    of that compiled graph — one per concurrently scoring domain, owned
    by the search and dropped when it returns — and scored from its
    attained rate, mean latency and carried rate
    ({!Throughput.attained}, {!Latency.summary}); a vertex whose inputs
    the candidate leaves unchanged reuses its queueing term. Grid
    points with no continuous knob are deduplicated by canonical
    assignment before the parallel map. The full report is built for
    the winner only. None of it changes a result: every score is the
    one {!Estimate.run} on the assigned graph gives, bit for bit. *)

val pareto :
  ?rng:Lognic_numerics.Rng.t ->
  ?queue_model:Latency.queue_model ->
  ?jobs:int ->
  ?observer:(observation -> unit) ->
  ?points:int ->
  Graph.t ->
  hw:Params.hardware ->
  traffic:Traffic.t ->
  knobs:knob list ->
  (float * solution) list
(** Figure 4-b's relax-the-goal loop, automated: solve
    [Maximize_throughput_max_latency bound] for [points] (default 8)
    latency bounds spaced geometrically between the
    minimum-achievable latency and the unconstrained
    maximum-throughput latency, returning [(bound, solution)] pairs in
    increasing-bound order. Infeasible bounds are dropped; carried
    throughput is non-decreasing along the returned frontier. *)

val pp_assignment : Format.formatter -> assignment -> unit
