module G = Lognic.Graph
module N = Lognic_numerics

type config = {
  seed : int;
  duration : float;
  warmup : float;
  service_dist : Ip_node.service_dist;
  arrival : Traffic_gen.arrival;
  sample_interval : float option;
  series_capacity : int;
  trace : Trace.config option;
  check_invariants : bool;
  metrics : Metrics.config option;
  tenants : Tenant.set option;
  flow_cache : Lognic.Flowcache.spec option;
}

(* The builder is the one way to assemble a config (the record is
   private outside this module). Setters take the config last so they
   chain: [Config.(default |> with_seed 7 |> ...)]. *)
module Config = struct
  type t = config

  let default =
    {
      seed = 1;
      duration = 0.1;
      warmup = 0.01;
      service_dist = Ip_node.Exponential;
      arrival = Traffic_gen.Poisson;
      sample_interval = None;
      series_capacity = 4096;
      trace = None;
      check_invariants = false;
      metrics = None;
      tenants = None;
      flow_cache = None;
    }

  let with_seed seed c = { c with seed }
  let with_duration duration c = { c with duration }
  let with_warmup warmup c = { c with warmup }

  let with_horizon ?warmup duration c =
    let warmup = match warmup with Some w -> w | None -> duration /. 10. in
    { c with duration; warmup }

  let with_service_dist service_dist c = { c with service_dist }
  let with_arrival arrival c = { c with arrival }
  let with_sampling ?capacity interval c =
    let series_capacity = Option.value capacity ~default:c.series_capacity in
    { c with sample_interval = Some interval; series_capacity }
  let with_trace trace c = { c with trace = Some trace }
  let without_trace c = { c with trace = None }
  let with_invariants check_invariants c = { c with check_invariants }
  let with_metrics metrics c = { c with metrics = Some metrics }
  let with_tenants tenants c = { c with tenants = Some tenants }
  let without_tenants c = { c with tenants = None }
  let with_flow_cache spec c = { c with flow_cache = Some spec }
  let without_flow_cache c = { c with flow_cache = None }
end

module Run = struct
  type t = {
    graph : G.t;
    hw : Lognic.Params.hardware;
    mix : Lognic.Traffic.mix;
    config : config;
    faults : Faults.plan;
  }

  let make ?(config = Config.default) ?(faults = Faults.empty) graph ~hw ~mix =
    { graph; hw; mix; config; faults }

  let single ?config ?faults graph ~hw ~traffic =
    make ?config ?faults graph ~hw ~mix:[ (traffic, 1.) ]

  let with_config t config = { t with config }
  let with_faults t faults = { t with faults }
end

type vertex_stats = {
  vid : G.vertex_id;
  vlabel : string;
  drops : int;
  queue_drops : int array;
  completions : int;
  utilization : float;
}

type medium_stats = {
  mlabel : string;
  m_utilization : float;
  m_busy : float;
  m_rejections : int;
}

type interval_stats = Faults.interval_stats = {
  i_start : float;
  i_stop : float;
  i_faults : string list;
  i_offered : int;
  i_delivered : int;
  i_dropped : int;
  i_throughput : float;
  i_latency : float;
}

type resilience = Faults.resilience = {
  recovery_time : float option;
  worst_throughput : float;
  worst_start : float;
}

type measurement = {
  summary : Telemetry.summary;
  vertex_stats : vertex_stats list;
  medium_stats : medium_stats list;
  drop_breakdown : (Telemetry.drop_site * int) list;
  series : Telemetry.Series.t list;
  interface_utilization : float;
  memory_utilization : float;
  generated : int;
  fault_intervals : interval_stats list;
  resilience : resilience option;
  trace : Trace.t option;
  invariants : Invariants.report option;
  metrics : Metrics.t option;
  tenants : Tenant.stats option;
  flow_cache : Flow_cache.stats option;
}

(* Rejects a config the run could not honour, naming the field, before
   any engine, rng or entity is set up. *)
let validate (c : config) =
  let bad field fmt =
    Printf.ksprintf (fun s -> invalid_arg ("Netsim.execute: " ^ field ^ " " ^ s)) fmt
  in
  if not (Float.is_finite c.duration && c.duration > 0.) then
    bad "duration" "must be finite and > 0 (got %g)" c.duration;
  if not (c.warmup >= 0. && c.warmup < c.duration) then
    bad "warmup" "must be in [0, duration) (got %g with duration %g)" c.warmup c.duration;
  match c.sample_interval with
  | Some dt when not (Float.is_finite dt && dt > 0.) ->
    bad "sample_interval" "must be finite and > 0 (got %g)" dt
  | _ -> ()

let execute_with ?engine:reused (spec : Run.t) =
  let config = spec.config and duration = spec.config.duration in
  let warmup = config.warmup in
  validate config;
  (* A reused engine is reset, which keeps its event-queue arrays warm:
     replicated runs stop paying queue (re)allocation per run, and the
     calendar queue pops in exact (time, seq) order regardless of its
     inherited bucket geometry, so reuse is result-identical. *)
  let engine =
    match reused with
    | Some e ->
      Engine.reset e;
      e
    | None -> Engine.create ()
  in
  (* The rng split order is fixed: generator, router, per-node (graph
     order, inside [Nic.compile]), then one stream per optional feature
     in install order — fault, tenant, flow, trace — each split only
     when its feature is on, so switching a feature off restores the
     exact streams of a run that never had it. *)
  let rng = N.Rng.create ~seed:config.seed in
  let gen_rng = N.Rng.split rng in
  let route_rng = N.Rng.split rng in
  let telemetry = Telemetry.create ~warmup in
  let classes = max 1 (List.length spec.mix) in
  let nic =
    Nic.compile engine ~rng ~telemetry ~track_lanes:(config.trace <> None)
      ~scheduler:
        (match config.tenants with
        | Some s -> Tenant.scheduler s ~classes
        | None -> Nic.Flat)
      ~service_dist:config.service_dist ~classes spec.hw spec.graph
  in
  (* Installs run in rng-split order; fault events, metrics ticks and
     series samples are scheduled in this order too, before the first
     arrival. *)
  let faults =
    if Faults.is_empty spec.faults then None
    else Some (Faults.install nic spec.faults ~rng ~duration)
  in
  let tenants = Option.map (fun s -> Tenant.install s ~rng ~warmup) config.tenants in
  let flow =
    Option.map (fun s -> Flow_cache.install nic s ~rng ~warmup) config.flow_cache
  in
  let trace = Option.map (fun c -> Trace.install nic c ~rng) config.trace in
  let checker =
    if not config.check_invariants then None
    else Some (Invariants.install nic ~faulted:(faults <> None))
  in
  let metrics =
    Option.map
      (fun mc ->
        let gauges =
          match tenants with Some (a, _) -> Tenant.gauges a ~engine | None -> []
        in
        Metrics.install mc nic ~until:duration ~warmup ~gauges)
      config.metrics
  in
  let series =
    match config.sample_interval with
    | None -> []
    | Some interval ->
      Nic.sample_series nic ~interval ~capacity:config.series_capacity ~until:duration
  in
  let hooks =
    Nic.compose
      (List.filter_map Fun.id
         [
           Option.map snd faults;
           Option.map snd tenants;
           Option.map snd flow;
           Option.map snd trace;
           Option.map snd checker;
           Option.map snd metrics;
         ])
  in
  let sizes =
    Array.of_list (List.map (fun ((c : Lognic.Traffic.t), _) -> c.packet_size) spec.mix)
  in
  let gen =
    Traffic_gen.create engine ~rng:gen_rng ~arrival:config.arrival ~mix:spec.mix
      ~on_arrival:(Nic.walk nic hooks ~route_rng ~sizes)
  in
  Traffic_gen.start gen ~until:duration;
  Engine.run ~until:duration
    ?observer:(Option.map (fun (inv, _) -> Invariants.observe_event_time inv) checker)
    ?profile:(Option.bind metrics (fun (m, _) -> Metrics.profiler m))
    engine;
  let summary = Telemetry.summarize telemetry ~horizon:duration in
  let generated = Traffic_gen.generated gen in
  let fault_intervals, resilience =
    match faults with Some (finish, _) -> finish () | None -> ([], None)
  in
  let invariants =
    Option.map
      (fun (inv, _) ->
        Invariants.finish inv nic ~horizon:duration ~generated
          ~birth_bins:
            (List.map
               (fun r -> (r.i_offered, r.i_delivered + r.i_dropped))
               fault_intervals)
          summary)
      checker
  in
  {
    summary;
    vertex_stats =
      List.map
        (fun ((v : G.vertex), node) ->
          {
            vid = v.id;
            vlabel = v.label;
            drops = Ip_node.drops node;
            queue_drops =
              Array.init (Ip_node.queue_count node) (Ip_node.drops_of_queue node);
            completions = Ip_node.completions node;
            utilization = Ip_node.utilization node ~until:duration;
          })
        nic.nodes;
    medium_stats =
      List.map
        (fun m ->
          {
            mlabel = Medium.label m;
            m_utilization = Medium.utilization m ~until:duration;
            m_busy = Medium.busy_within m ~until:duration;
            m_rejections = Medium.rejections m;
          })
        nic.media;
    drop_breakdown = summary.drop_breakdown;
    series;
    interface_utilization = Medium.utilization nic.interface ~until:duration;
    memory_utilization = Medium.utilization nic.memory ~until:duration;
    generated;
    fault_intervals;
    resilience;
    trace = Option.map fst trace;
    invariants;
    metrics = Option.map fst metrics;
    tenants = Option.map (fun (a, _) -> Tenant.summarize a ~horizon:duration) tenants;
    flow_cache =
      Option.map (fun (st, _) -> Flow_cache.summarize st ~horizon:duration) flow;
  }

let execute spec = execute_with spec

let measurement_to_json m =
  let module J = Telemetry.Json in
  J.versioned ~kind:"measurement"
    [
      ("summary", Telemetry.to_json m.summary);
      ( "vertices",
        J.Arr
          (List.map
             (fun v ->
               J.Obj
                 [
                   ("id", J.Num (float_of_int v.vid));
                   ("label", J.Str v.vlabel);
                   ("drops", J.Num (float_of_int v.drops));
                   ( "queue_drops",
                     J.Arr
                       (Array.to_list
                          (Array.map
                             (fun d -> J.Num (float_of_int d))
                             v.queue_drops)) );
                   ("completions", J.Num (float_of_int v.completions));
                   ("utilization", J.Num v.utilization);
                 ])
             m.vertex_stats) );
      ( "media",
        J.Arr
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("label", J.Str s.mlabel);
                   ("utilization", J.Num s.m_utilization);
                   ("busy", J.Num s.m_busy);
                   ("rejections", J.Num (float_of_int s.m_rejections));
                 ])
             m.medium_stats) );
      ("series", J.Arr (List.map Telemetry.Series.to_json m.series));
      ("generated", J.Num (float_of_int m.generated));
      ("fault_intervals", J.Arr (List.map Faults.interval_to_json m.fault_intervals));
      ( "resilience",
        match m.resilience with
        | None -> J.Null
        | Some r -> Faults.resilience_to_json r );
    ]

type entity_replicated = {
  entity : string;
  utilization_mean : float;
  drops_mean : float;
}

type resilience_replicated = {
  recovered_runs : int;
  recovery_mean : float;
  recovery_max : float;
  worst_throughput_mean : float;
  worst_throughput_min : float;
}

type replicated = {
  runs : int;
  throughput_mean : float;
  throughput_stddev : float;
  latency_mean : float;
  latency_stddev : float;
  loss_mean : float;
  entities : entity_replicated list;
  resilience : resilience_replicated option;
}

let replication_specs (spec : Run.t) runs =
  if runs < 2 then invalid_arg "Netsim.execute_replicated: needs runs >= 2";
  List.init runs (fun i ->
      Run.with_config spec { spec.config with seed = spec.config.seed + i })

let resilience_across measurements =
  let per_run =
    List.filter_map (fun (m : measurement) -> m.resilience) measurements
  in
  match per_run with
  | [] -> None
  | per_run ->
    let recoveries = List.filter_map (fun r -> r.recovery_time) per_run in
    let worsts = List.map (fun r -> r.worst_throughput) per_run in
    let n = float_of_int (List.length recoveries) in
    Some
      {
        recovered_runs = List.length recoveries;
        recovery_mean =
          (if recoveries = [] then 0.
           else List.fold_left ( +. ) 0. recoveries /. n);
        recovery_max = List.fold_left Float.max 0. recoveries;
        worst_throughput_mean =
          List.fold_left ( +. ) 0. worsts /. float_of_int (List.length worsts);
        worst_throughput_min = List.fold_left Float.min infinity worsts;
      }

let replicated_of_measurements measurements =
  if List.length measurements < 2 then
    invalid_arg "Netsim.replicated_of_measurements: needs >= 2";
  let runs = float_of_int (List.length measurements) in
  (* Per-entity across-run means, in the first run's (deterministic)
     entity order: every replication simulates the same graph, so the
     entity lists line up run to run. *)
  let entity_rows m =
    List.map (fun v -> (v.vlabel, v.utilization, float_of_int v.drops))
      m.vertex_stats
    @ List.map
        (fun s -> (s.mlabel, s.m_utilization, float_of_int s.m_rejections))
        m.medium_stats
  in
  let acc = Hashtbl.create 16 in
  List.iter
    (fun m ->
      List.iter
        (fun (entity, util, drops) ->
          let u, d =
            Option.value (Hashtbl.find_opt acc entity) ~default:(0., 0.)
          in
          Hashtbl.replace acc entity (u +. util, d +. drops))
        (entity_rows m))
    measurements;
  let entities =
    List.map
      (fun (entity, _, _) ->
        let u, d = Hashtbl.find acc entity in
        { entity; utilization_mean = u /. runs; drops_mean = d /. runs })
      (entity_rows (List.hd measurements))
  in
  let stat f = Array.of_list (List.map (fun m -> f m.summary) measurements) in
  let throughputs = stat (fun s -> s.Telemetry.throughput) in
  let latencies = stat (fun s -> s.Telemetry.mean_latency) in
  let module St = Lognic_numerics.Stats in
  {
    runs = List.length measurements;
    throughput_mean = St.mean throughputs;
    throughput_stddev = St.stddev throughputs;
    latency_mean = St.mean latencies;
    latency_stddev = St.stddev latencies;
    loss_mean = St.mean (stat (fun s -> s.Telemetry.loss_rate));
    entities;
    resilience = resilience_across measurements;
  }

let execute_replicated ?(runs = 5) spec =
  (* One engine serves every sequential replication: {!Engine.reset}
     clears it between runs while keeping the calendar queue's arrays
     warm, and reuse is result-identical (see {!execute_with}). *)
  let engine = Engine.create () in
  replicated_of_measurements
    (List.map (fun s -> execute_with ~engine s) (replication_specs spec runs))
