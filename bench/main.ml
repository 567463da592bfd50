(* The benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   (the same rows/series, model + simulator) — run with no arguments, or
   pass figure ids ("fig5 fig9") to regenerate a subset, or --quick for
   shorter simulations. --jobs N renders/runs sweeps N domains wide
   (output is identical at any job count).

   Part 2 (skipped by --figures-only; alone with --bench-only) is a
   Bechamel microbenchmark suite: one Test.make per figure/table
   measuring the cost of the model work that backs it, plus
   core-primitive benches. These quantify the paper's "analytical model
   instead of a cycle-level simulator" speed pitch: estimating a graph
   takes microseconds.

   --json PATH additionally dumps the microbenchmark estimates and the
   wall-clock as machine-readable JSON (for CI artifacts/trend lines). *)

module U = Lognic.Units
module G = Lognic.Graph
module D = Lognic_devices
open Bechamel
open Toolkit

(* Hand-rolled argv walk: flags, value-taking options (--json PATH,
   --jobs N), and bare figure ids. A plain "is this string present"
   scan would misread option values as figure names. *)
type cli = {
  quick : bool;
  bench_only : bool;
  figures_only : bool;
  trace_overhead : bool;
  fault_overhead : bool;
  invariant_overhead : bool;
  contention_overhead : bool;
  metrics_overhead : bool;
  tenant_overhead : bool;
  flowcache_overhead : bool;
  events_per_sec : bool;
  jobs : int option;
  json : string option;
  requested : string list;
}

let usage_line =
  "usage: main.exe [--quick] [--bench-only|--figures-only] \
   [--trace-overhead] [--fault-overhead] [--invariant-overhead] \
   [--contention-overhead] [--metrics-overhead] [--tenant-overhead] \
   [--flowcache-overhead] [--events-per-sec] [--jobs N] [--json PATH] [FIG...]"

let help () =
  print_endline usage_line;
  print_string
    "\n\
     With no gate flags: regenerate the paper's tables/figures (part 1)\n\
     and run the Bechamel microbenchmark suite (part 2).\n\n\
     Gate flags run CI assertions instead; each gate prints what it\n\
     measured and exits through one of two shared verdicts:\n\n\
     exit codes:\n\
    \  0  all requested gates passed (or normal figure/bench run)\n\
    \  2  usage error\n\
    \  3  budget breach: a performance budget was exceeded (overhead\n\
    \     above its 5% cap, events/sec under the floor, words/event\n\
    \     over the ceiling)\n\
    \  4  identity breach: a byte-identity or correctness invariant\n\
    \     failed (an observation-only feature changed the measurement\n\
    \     JSON, or a gate's self-check found wrong results)\n\n\
     gates:\n\
    \  --trace-overhead       packet-lifecycle tracer <= 5% overhead\n\
    \  --fault-overhead       empty fault plan byte-identical; no-op\n\
    \                         plan <= 5% overhead\n\
    \  --invariant-overhead   check_invariants observation-only; the\n\
    \                         disabled path does no checker work\n\
    \  --contention-overhead  contention report byte-identical to a\n\
    \                         plain run; report cost <= 5%\n\
    \  --metrics-overhead     metrics streaming observation-only;\n\
    \                         full NDJSON streaming <= 5% overhead\n\
    \  --tenant-overhead      tenants-off (and single-tenant) runs\n\
    \                         byte-identical; 16-VF arbitration <= 5%;\n\
    \                         steady-state words/event flat at 2000 VFs\n\
    \  --flowcache-overhead   flow-cache-off runs byte-identical; the\n\
    \                         1M-flow steady state allocates no words\n\
    \                         per event beyond the flow draw\n\
    \  --events-per-sec       engine-reuse byte-identical; events/sec\n\
    \                         floor and words/event ceiling\n";
  exit 0

let cli =
  let usage () =
    prerr_endline usage_line;
    exit 2
  in
  let rec walk acc = function
    | [] -> { acc with requested = List.rev acc.requested }
    | ("--help" | "-h") :: _ -> help ()
    | "--quick" :: rest -> walk { acc with quick = true } rest
    | "--bench-only" :: rest -> walk { acc with bench_only = true } rest
    | "--figures-only" :: rest -> walk { acc with figures_only = true } rest
    | "--trace-overhead" :: rest -> walk { acc with trace_overhead = true } rest
    | "--fault-overhead" :: rest -> walk { acc with fault_overhead = true } rest
    | "--invariant-overhead" :: rest ->
      walk { acc with invariant_overhead = true } rest
    | "--contention-overhead" :: rest ->
      walk { acc with contention_overhead = true } rest
    | "--metrics-overhead" :: rest ->
      walk { acc with metrics_overhead = true } rest
    | "--tenant-overhead" :: rest ->
      walk { acc with tenant_overhead = true } rest
    | "--flowcache-overhead" :: rest ->
      walk { acc with flowcache_overhead = true } rest
    | "--events-per-sec" :: rest -> walk { acc with events_per_sec = true } rest
    | "--jobs" :: v :: rest -> (
      match int_of_string_opt v with
      | Some n when n >= 1 -> walk { acc with jobs = Some n } rest
      | _ -> usage ())
    | "--json" :: path :: rest -> walk { acc with json = Some path } rest
    | a :: _ when String.length a >= 2 && String.sub a 0 2 = "--" -> usage ()
    | fig :: rest -> walk { acc with requested = fig :: acc.requested } rest
  in
  walk
    {
      quick = false;
      bench_only = false;
      figures_only = false;
      trace_overhead = false;
      fault_overhead = false;
      invariant_overhead = false;
      contention_overhead = false;
      metrics_overhead = false;
      tenant_overhead = false;
      flowcache_overhead = false;
      events_per_sec = false;
      jobs = None;
      json = None;
      requested = [];
    }
    (List.tl (Array.to_list Sys.argv))

(* Every gate reports failure through one of these two verdicts, so the
   exit-code convention lives in exactly one place (and in --help):
   identity/correctness breaches exit 4, performance-budget breaches
   exit 3. Both print a FAIL line on stderr first. *)
let fail_identity fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "FAIL: %s@." msg;
      exit 4)
    fmt

let fail_budget fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "FAIL: %s@." msg;
      exit 3)
    fmt

let quick = cli.quick
let () = Option.iter Lognic_numerics.Parallel.set_default_jobs cli.jobs
let speed = if quick then Lognic_apps.Figures.Quick else Lognic_apps.Figures.Full

let render_figures () =
  match cli.requested with
  | [] -> Lognic_apps.Figures.all ~speed Fmt.stdout
  | names ->
    List.iter
      (fun name ->
        match Lognic_apps.Figures.render ~speed name Fmt.stdout with
        | Ok () -> ()
        | Error e -> Fmt.epr "error: %s@." e)
      names

(* --- Bechamel microbenches --- *)

let md5_graph = D.Liquidio.inline_accel_graph ~spec:D.Accel_spec.md5 ~packet_size:U.mtu ()
let md5_traffic = Lognic.Traffic.make ~rate:D.Liquidio.line_rate ~packet_size:U.mtu

(* The pinned md5-workload simulation the overhead gates time, and the
   measurement JSON their identity checks compare. *)
let gate_config = Lognic_sim.Netsim.Config.(default |> with_horizon ~warmup:2e-4 1e-2)

let md5_spec ?faults config =
  Lognic_sim.Netsim.Run.single ~config ?faults md5_graph ~hw:D.Liquidio.hardware
    ~traffic:md5_traffic

let measurement_json m =
  Lognic_sim.Telemetry.Json.to_string (Lognic_sim.Netsim.measurement_to_json m)
let nvme_graph = D.Stingray.nvme_of_graph ~io:D.Ssd.rrd_4k ()
let nvme_traffic = Lognic.Traffic.make ~rate:2e9 ~packet_size:(4. *. U.kib)
let panic_profile = List.hd Lognic_apps.Panic_scenarios.profiles

let model_benches =
  [
    Test.make ~name:"table2:parameter-glossary"
      (Staged.stage (fun () -> List.length Lognic.Params.table2));
    (* one bench per figure: the model-side evaluation that figure needs *)
    Test.make ~name:"fig5:granularity-point"
      (Staged.stage (fun () ->
           let g =
             D.Liquidio.inline_accel_graph ~granularity:8192. ~spec:D.Accel_spec.crc
               ~packet_size:1024. ()
           in
           Lognic.Throughput.evaluate g ~hw:D.Liquidio.hardware
             ~traffic:
               (Lognic.Traffic.make ~rate:D.Liquidio.line_rate ~packet_size:1024.)));
    Test.make ~name:"fig6:nvmeof-estimate"
      (Staged.stage (fun () ->
           Lognic.Estimate.run ~queue_model:Lognic.Latency.Mmcn_model nvme_graph
             ~hw:D.Stingray.hardware ~traffic:nvme_traffic));
    Test.make ~name:"fig7:gc-gap-point"
      (Staged.stage (fun () ->
           let io = D.Ssd.mixed_4k ~read_fraction:0.5 in
           let g = D.Stingray.nvme_of_graph ~gc:D.Ssd.Gc_worst_case ~io () in
           Lognic.Throughput.evaluate g ~hw:D.Stingray.hardware
             ~traffic:(Lognic.Traffic.make ~rate:3e9 ~packet_size:io.D.Ssd.io_size)));
    Test.make ~name:"fig9:parallelism-point"
      (Staged.stage (fun () ->
           let g =
             D.Liquidio.inline_accel_graph ~cores:9 ~spec:D.Accel_spec.md5
               ~packet_size:U.mtu ()
           in
           Lognic.Throughput.evaluate g ~hw:D.Liquidio.hardware ~traffic:md5_traffic));
    Test.make ~name:"fig10:size-sweep-model"
      (Staged.stage (fun () ->
           List.map
             (fun size ->
               let g =
                 D.Liquidio.inline_accel_graph ~spec:D.Accel_spec.md5
                   ~packet_size:size ()
               in
               Lognic.Throughput.capacity g ~hw:D.Liquidio.hardware)
             [ 64.; 256.; 1024.; U.mtu ]));
    Test.make ~name:"fig11-12:microservice-allocation"
      (Staged.stage (fun () ->
           Lognic_apps.Microservices.allocation Lognic_apps.Microservices.Lognic_opt
             Lognic_apps.Microservices.rta_shm));
    Test.make ~name:"fig13-14:placement-search"
      (Staged.stage (fun () ->
           Lognic_apps.Nf_chain.placement_for Lognic_apps.Nf_chain.Lognic_opt
             ~packet_size:512.));
    Test.make ~name:"fig15:credit-suggestion"
      (Staged.stage (fun () ->
           Lognic_apps.Panic_scenarios.suggest_credits ~profile:panic_profile ()));
    Test.make ~name:"fig16-17:steering-optimum"
      (Staged.stage (fun () ->
           Lognic_apps.Panic_scenarios.optimal_split ~packet_size:512.
             ~offered:(80. *. U.gbps)));
    Test.make ~name:"fig18-19:parallelism-suggestion"
      (Staged.stage (fun () ->
           Lognic_apps.Panic_scenarios.suggest_parallelism ~split:(80., 20.) ()));
  ]

let primitive_benches =
  [
    Test.make ~name:"core:throughput-eval"
      (Staged.stage (fun () ->
           Lognic.Throughput.evaluate md5_graph ~hw:D.Liquidio.hardware
             ~traffic:md5_traffic));
    Test.make ~name:"core:latency-eval"
      (Staged.stage (fun () ->
           Lognic.Latency.evaluate md5_graph ~hw:D.Liquidio.hardware
             ~traffic:md5_traffic));
    Test.make ~name:"core:mm1n-closed-form"
      (Staged.stage (fun () ->
           Lognic_queueing.Mm1n.mean_waiting_time
             (Lognic_queueing.Mm1n.create ~lambda:0.9 ~mu:1. ~capacity:32)));
    Test.make ~name:"sim:1ms-simulated"
      (Staged.stage (fun () ->
           Lognic_sim.Netsim.execute (Lognic_sim.Netsim.Run.single
             ~config:
               Lognic_sim.Netsim.Config.(
                 default |> with_horizon ~warmup:1e-4 1e-3)
             md5_graph ~hw:D.Liquidio.hardware ~traffic:md5_traffic)));
    Test.make ~name:"sim:1ms-telemetry-sampled"
      (* same run with 50 samples of every entity: the observability
         overhead the sampling path must keep negligible *)
      (Staged.stage (fun () ->
           Lognic_sim.Netsim.execute (Lognic_sim.Netsim.Run.single
             ~config:
               Lognic_sim.Netsim.Config.(
                 default |> with_horizon ~warmup:1e-4 1e-3
                 |> with_sampling 2e-5)
             md5_graph ~hw:D.Liquidio.hardware ~traffic:md5_traffic)));
    Test.make ~name:"sim:1ms-traced"
      (* same run with the packet-lifecycle trace recorder attached
         (reservoir 64): the span-recording path whose overhead the
         --trace-overhead check bounds *)
      (Staged.stage (fun () ->
           Lognic_sim.Netsim.execute (Lognic_sim.Netsim.Run.single
             ~config:
               Lognic_sim.Netsim.Config.(
                 default |> with_horizon ~warmup:1e-4 1e-3
                 |> with_trace { Lognic_sim.Trace.reservoir = 64 })
             md5_graph ~hw:D.Liquidio.hardware ~traffic:md5_traffic)));
    Test.make ~name:"optimizer:nelder-mead-2d"
      (Staged.stage (fun () ->
           Lognic_numerics.Nelder_mead.minimize
             ~f:(fun x -> ((x.(0) -. 1.) ** 2.) +. ((x.(1) +. 2.) ** 2.))
             ~x0:[| 0.; 0. |] ()));
  ]

(* Returns (name, ns_per_run) rows in the order printed, for --json. *)
let run_benchmarks () =
  let benchmark test =
    let quota = Time.second (if quick then 0.25 else 1.0) in
    Benchmark.all
      (Benchmark.cfg ~limit:2000 ~quota ~kde:(Some 1000) ())
      Instance.[ monotonic_clock ]
      test
  in
  let analyze raw =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
    Analyze.all ols Instance.monotonic_clock raw
  in
  Fmt.pr "@.== Bechamel microbenchmarks (ns per evaluation) ==@.";
  List.concat_map
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.fold
        (fun name ols rows ->
          match Analyze.OLS.estimates ols with
          | Some [ estimate ] ->
            Fmt.pr "%-36s %12.1f ns/run@." name estimate;
            (name, estimate) :: rows
          | Some _ | None ->
            Fmt.pr "%-36s (no estimate)@." name;
            rows)
        results [])
    (model_benches @ primitive_benches)

(* --- trace-overhead gate (--trace-overhead) ---

   Asserts the packet-lifecycle tracer stays under 5% overhead on a
   simulated run. Bechamel's OLS estimates are great for trends but
   noisy across CI machines, so the gate times interleaved whole runs
   and compares minima: interleaving cancels frequency drift, and
   since timing noise is strictly additive the minimum is the robust
   estimate of the true cost. Exit 3 on breach.

   The duration is fixed (--quick only trims iterations): tracing cost
   is O(reservoir), not O(packets), so a too-short run where the
   64-packet reservoir covers a big slice of all traffic would
   overstate the amortized overhead the budget is about. *)

let trace_overhead_gate () =
  let config trace =
    match trace with
    | None -> gate_config
    | Some t -> Lognic_sim.Netsim.Config.with_trace t gate_config
  in
  let run trace = ignore (Lognic_sim.Netsim.execute (md5_spec (config trace))) in
  let traced = Some { Lognic_sim.Trace.reservoir = 64 } in
  (* warm both paths before timing anything *)
  run None;
  run traced;
  let time trace =
    let t0 = Unix.gettimeofday () in
    run trace;
    Unix.gettimeofday () -. t0
  in
  let iters = if quick then 9 else 21 in
  let untraced = ref infinity and traced_best = ref infinity in
  for _ = 1 to iters do
    untraced := Float.min !untraced (time None);
    traced_best := Float.min !traced_best (time traced)
  done;
  let overhead = (!traced_best -. !untraced) /. !untraced in
  Fmt.pr "trace overhead: untraced %.2f ms, traced %.2f ms -> %+.1f%%@."
    (!untraced *. 1e3) (!traced_best *. 1e3) (overhead *. 100.);
  if overhead > 0.05 then
    fail_budget "tracing overhead %.1f%% exceeds the 5%% budget"
      (overhead *. 100.)

(* --- fault-overhead gate (--fault-overhead) ---

   Two assertions about the fault-injection layer's cost on fault-free
   runs. First, identity: a spec without a fault plan and an explicit
   empty-plan spec must produce byte-identical measurement JSON (exit 4
   on mismatch — an empty plan must leave the simulator exactly on its
   fault-free hot path). Second, overhead: realizing the fault machinery via a no-op
   plan (a zero-probability drop burst spanning the horizon, which
   activates the fault rng stream and the per-packet sub-interval
   accounting but sheds nothing) must cost at most 5% over the empty
   plan (exit 3 on breach). Timing protocol as in the trace gate:
   interleaved whole runs, compare minima. *)

let fault_overhead_gate () =
  let spec faults = md5_spec ~faults gate_config in
  let noop_plan =
    [
      Lognic_sim.Faults.drop_burst ~probability:0. ~start:0.
        ~stop:gate_config.Lognic_sim.Netsim.duration;
    ]
  in
  let unplanned = measurement_json (Lognic_sim.Netsim.execute (md5_spec gate_config)) in
  let empty = Lognic_sim.Netsim.execute (spec Lognic_sim.Faults.empty) in
  if unplanned <> measurement_json empty then
    fail_identity "empty-plan execute is not byte-identical to a run without a plan";
  Fmt.pr "empty-plan identity: OK (%d bytes of measurement JSON)@."
    (String.length unplanned);
  let run faults = ignore (Lognic_sim.Netsim.execute (spec faults)) in
  run Lognic_sim.Faults.empty;
  run noop_plan;
  let time faults =
    let t0 = Unix.gettimeofday () in
    run faults;
    Unix.gettimeofday () -. t0
  in
  let iters = if quick then 9 else 21 in
  let bare = ref infinity and faulted = ref infinity in
  for _ = 1 to iters do
    bare := Float.min !bare (time Lognic_sim.Faults.empty);
    faulted := Float.min !faulted (time noop_plan)
  done;
  let overhead = (!faulted -. !bare) /. !bare in
  Fmt.pr "fault-plan overhead: empty %.2f ms, no-op plan %.2f ms -> %+.1f%%@."
    (!bare *. 1e3) (!faulted *. 1e3) (overhead *. 100.);
  if overhead > 0.05 then
    fail_budget "fault-plan overhead %.1f%% exceeds the 5%% budget"
      (overhead *. 100.)

(* --- invariant-overhead gate (--invariant-overhead) ---

   Two assertions about the runtime invariant checkers. First,
   identity: with [check_invariants = false] (the default) the
   measurement JSON must be byte-identical to a plain run — the
   [invariants] field is deliberately excluded from serialization,
   so the flag must be observable only through the in-memory report
   (exit 4 on mismatch). Second, the disabled-path budget: CI has no
   pre-invariants binary to diff against, but the enabled run is a
   strict superset of the disabled run's work (the same simulation
   plus every check), so a zero-cost disabled path must measure at
   or below the enabled path — if disabled exceeds enabled by more
   than the 5% noise budget, the disabled path is provably running
   work it should not (a flag inversion, or checks hoisted out of
   the [Some checker] branches). Exit 3 on breach. Timing protocol
   as in the trace gate: interleaved whole runs, compare minima. *)

let invariant_overhead_gate () =
  let measure check =
    Lognic_sim.Netsim.(execute (md5_spec (Config.with_invariants check gate_config)))
  in
  let off = measure false and on_ = measure true in
  if measurement_json off <> measurement_json on_ then
    fail_identity
      "check_invariants changed the measurement JSON (must be \
       observation-only)";
  (match on_.Lognic_sim.Netsim.invariants with
  | Some r when Lognic_sim.Invariants.ok r ->
    Fmt.pr "checked run: %d invariant checks, 0 violations@."
      r.Lognic_sim.Invariants.checks
  | Some r ->
    fail_identity "%d invariant violations on the bench fixture"
      r.Lognic_sim.Invariants.total_violations
  | None -> fail_identity "check_invariants=true produced no report");
  let run check = ignore (measure check) in
  run false;
  run true;
  let time check =
    let t0 = Unix.gettimeofday () in
    run check;
    Unix.gettimeofday () -. t0
  in
  let iters = if quick then 9 else 21 in
  let disabled = ref infinity and enabled = ref infinity in
  for _ = 1 to iters do
    disabled := Float.min !disabled (time false);
    enabled := Float.min !enabled (time true)
  done;
  let checker_cost = (!enabled -. !disabled) /. !disabled in
  let disabled_overhead = (!disabled -. !enabled) /. !enabled in
  Fmt.pr
    "invariant checkers: disabled %.2f ms, enabled %.2f ms (checks cost \
     %+.1f%% when on)@."
    (!disabled *. 1e3) (!enabled *. 1e3) (checker_cost *. 100.);
  if disabled_overhead > 0.05 then
    fail_budget
      "disabled path is %.1f%% SLOWER than the checked path — it is doing \
       work the check_invariants=false branch must skip (budget 5%%)"
      (disabled_overhead *. 100.)

(* --- contention-overhead gate (--contention-overhead) ---

   Two assertions about the multi-resource contention layer on
   contention-free runs. First, identity: [Contention.run] without a
   contention spec must drive the {e identical} simulation a plain
   [Netsim.execute] with the same (fully pinned) config would — the
   measurement JSON inside the report must be byte-identical to the
   standalone run (exit 4 on mismatch; the joint model and the report
   join are observation-only). Second, overhead: the full contention
   report (joint model, tail analysis, per-entity join) must cost at
   most 5% over the bare simulation it wraps — the model side is
   microseconds against a 10 ms simulated run, so a breach means the
   report path started re-running simulations or scanning telemetry
   super-linearly (exit 3). Timing protocol as in the trace gate:
   interleaved whole runs, compare minima. *)

let contention_overhead_gate () =
  let config =
    Lognic_sim.Netsim.Config.(
      default |> with_horizon ~warmup:2e-4 1e-2
      (* pinned explicitly: Explain.run_mix would otherwise default it *)
      |> with_sampling (1e-2 /. 256.))
  in
  let mix =
    [
      ( Lognic.Traffic.make
          ~rate:(D.Liquidio.line_rate /. 2.)
          ~packet_size:U.mtu,
        0.6 );
      (Lognic.Traffic.make ~rate:(D.Liquidio.line_rate /. 4.) ~packet_size:512., 0.4);
    ]
  in
  let report =
    Lognic_sim.Contention.run ~config md5_graph ~hw:D.Liquidio.hardware ~mix
  in
  let run_plain () =
    Lognic_sim.Netsim.(execute (Run.make ~config md5_graph ~hw:D.Liquidio.hardware ~mix))
  in
  let plain = measurement_json (run_plain ()) in
  if
    measurement_json report.Lognic_sim.Contention.base.Lognic_sim.Explain.mix_measurement
    <> plain
  then
    fail_identity
      "contention-off report measurement is not byte-identical to a plain \
       run";
  Fmt.pr "contention-off identity: OK (%d bytes of measurement JSON)@."
    (String.length plain);
  let run_report () =
    ignore
      (Lognic_sim.Contention.run ~config md5_graph ~hw:D.Liquidio.hardware ~mix)
  in
  let run_plain () = ignore (run_plain ()) in
  run_report ();
  run_plain ();
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let iters = if quick then 9 else 21 in
  let bare = ref infinity and reported = ref infinity in
  for _ = 1 to iters do
    bare := Float.min !bare (time run_plain);
    reported := Float.min !reported (time run_report)
  done;
  let overhead = (!reported -. !bare) /. !bare in
  Fmt.pr
    "contention-report overhead: plain %.2f ms, full report %.2f ms -> \
     %+.1f%%@."
    (!bare *. 1e3) (!reported *. 1e3) (overhead *. 100.);
  if overhead > 0.05 then
    fail_budget "contention-report overhead %.1f%% exceeds the 5%% budget"
      (overhead *. 100.)

(* --- metrics-overhead gate (--metrics-overhead) ---

   Two assertions about the live streaming-metrics layer ({!Metrics}).
   First, identity: a run with the full metrics pipeline enabled — a
   snapshot at the default reference cadence (one per 1e-3 s simulated,
   [Metrics.default_config.interval]), a firing SLO rule, and every
   snapshot serialized to NDJSON — must produce measurement JSON
   byte-identical to a plain run (exit 4 on mismatch): every registered
   probe is read-only and the snapshot ticks split no rng, so metrics
   must be observation-only by construction. Second, overhead: that
   same full streaming configuration must cost at most 5% over the
   bare run (exit 3 on breach) — the budget covers the per-delivery
   histogram observe, the per-tick probe sweep, SLO evaluation, and
   NDJSON rendering, i.e. exactly what [lognic watch] exercises in
   production. Per-tick cost scales linearly with cadence, so the
   budget is stated at the default; MODEL.md documents the scaling.
   Timing protocol as in the trace gate: interleaved whole runs,
   compare minima. *)

let metrics_overhead_gate () =
  let module M = Lognic_sim.Metrics in
  let config metrics =
    match metrics with
    | None -> gate_config
    | Some m -> Lognic_sim.Netsim.Config.with_metrics m gate_config
  in
  let sink = Buffer.create 65536 in
  let streaming =
    Some
      {
        M.default_config with
        M.slo = [ M.Slo.parse_exn "*.utilization>0.5" ];
        on_snapshot =
          Some
            (fun snap ->
              M.snapshot_to_buffer sink snap;
              Buffer.add_char sink '\n');
      }
  in
  let measure metrics =
    Buffer.clear sink;
    Lognic_sim.Netsim.execute (md5_spec (config metrics))
  in
  let json = measurement_json in
  let off = measure None in
  let on_ = measure streaming in
  if json off <> json on_ then
    fail_identity
      "metrics streaming changed the measurement JSON (probes must be \
       read-only)";
  if Buffer.length sink = 0 then
    fail_identity "metrics-enabled run streamed no snapshots";
  Fmt.pr
    "metrics-off identity: OK (%d bytes of measurement JSON; enabled run \
     streamed %d bytes of NDJSON)@."
    (String.length (json off)) (Buffer.length sink);
  let run metrics = ignore (measure metrics) in
  run None;
  run streaming;
  let time metrics =
    let t0 = Unix.gettimeofday () in
    run metrics;
    Unix.gettimeofday () -. t0
  in
  let iters = if quick then 9 else 21 in
  let bare = ref infinity and streamed = ref infinity in
  for _ = 1 to iters do
    bare := Float.min !bare (time None);
    streamed := Float.min !streamed (time streaming)
  done;
  let overhead = (!streamed -. !bare) /. !bare in
  Fmt.pr "metrics overhead: bare %.2f ms, streaming %.2f ms -> %+.1f%%@."
    (!bare *. 1e3) (!streamed *. 1e3) (overhead *. 100.);
  if overhead > 0.05 then
    fail_budget "metrics streaming overhead %.1f%% exceeds the 5%% budget"
      (overhead *. 100.)

(* --- tenant-overhead gate (--tenant-overhead) ---

   Three assertions about the multi-tenant SR-IOV layer. First,
   identity (exit 4): a run configured through the Config builder
   pipeline must measure byte-identically to the same run configured by
   record update, and a single-tenant run must measure byte-identically
   to an untenanted one — with fewer than two tenants there is no
   arbitration to do, so the tenant layer must leave the simulator on
   the exact untenanted construction path (same rng split sequence,
   same flat scheduler). Second, budget (exit 3): a 16-VF population —
   hierarchical two-stage WRR arbitration, per-arrival tenant draws,
   per-VF attribution — must cost at most 5% over the untenanted run at
   the same moderate load. Third, scale (exit 3): the steady-state
   minor-heap allocation rate must not grow with the population — the
   per-event words measured as a {e finite difference} between a 2x and
   a 1x horizon (which cancels per-run setup such as building the
   2000-queue arbiter) must match the untenanted rate to within noise,
   proving the hot loop allocates zero words per tenant. Timing
   protocol as in the trace gate: interleaved whole runs, compare
   minima. *)

let tenant_overhead_gate () =
  let module T = Lognic_sim.Tenant in
  let module NS = Lognic_sim.Netsim in
  (* moderate load: half line rate keeps queues busy without saturating *)
  let traffic =
    Lognic.Traffic.make ~rate:(D.Liquidio.line_rate /. 2.) ~packet_size:U.mtu
  in
  let base d = NS.Config.(default |> with_horizon ~warmup:2e-4 d) in
  let run config =
    NS.execute (NS.Run.single ~config md5_graph ~hw:D.Liquidio.hardware ~traffic)
  in
  let json = measurement_json in
  let plain_json = json (run (base 1e-2)) in
  let setter_config = NS.Config.(default |> with_duration 1e-2 |> with_warmup 2e-4) in
  if json (run setter_config) <> plain_json then
    fail_identity
      "with_horizon run is not byte-identical to the with_duration / \
       with_warmup config run";
  let solo = NS.Config.with_tenants (T.set [ T.spec "solo" ]) (base 1e-2) in
  if json (run solo) <> plain_json then
    fail_identity
      "single-tenant run is not byte-identical to the untenanted run";
  Fmt.pr
    "tenants-off identity: OK (builder and single-tenant both match, %d \
     bytes of measurement JSON)@."
    (String.length plain_json);
  (* Budget: interleaved whole runs at a horizon long enough
     (1e-1 s ≈ 150 ms wall) that the 16-VF setup — a handful of
     16-entry arrays — is invisible next to the steady-state loop.
     Timing is organized into temporally-local blocks of interleaved
     (untenanted, 16-VF) pairs: each block yields its own
     minima-of-pairs ratio, and the gate takes the {e minimum} ratio
     across blocks. A real regression inflates the tenanted side of
     every block, so the min stays high; machine noise (multi-second
     slow periods on a shared box dilate whichever runs they land on)
     rarely spares no block, so transient interference cannot fail the
     gate. Global minima over all runs are worse here: the two
     configurations' floors can come from different noise periods,
     which earlier showed as ±5% swings in the ratio — and a
     finite-difference slope protocol before that amplified drift into
     ±15% per-iteration swings. *)
  let tenants16 d = NS.Config.with_tenants (T.uniform 16) (base d) in
  let time config =
    let t0 = Unix.gettimeofday () in
    ignore (run config);
    Unix.gettimeofday () -. t0
  in
  ignore (run (base 1e-1));
  ignore (run (tenants16 1e-1));
  let blocks = if quick then 3 else 7 in
  let pairs_per_block = 3 in
  let ratios =
    Array.init blocks (fun _ ->
        let bare = ref infinity and tenanted = ref infinity in
        for _ = 1 to pairs_per_block do
          bare := Float.min !bare (time (base 1e-1));
          tenanted := Float.min !tenanted (time (tenants16 1e-1))
        done;
        (!tenanted -. !bare) /. !bare)
  in
  let overhead = Array.fold_left Float.min infinity ratios in
  Fmt.pr
    "tenant overhead: %+.1f%% at 16 VFs (best of %d blocks x %d interleaved \
     pairs; per-block %s)@."
    (overhead *. 100.) blocks pairs_per_block
    (String.concat " "
       (Array.to_list
          (Array.map (fun r -> Fmt.str "%+.1f%%" (r *. 100.)) ratios)));
  if overhead > 0.05 then
    fail_budget "16-VF arbitration overhead %.1f%% exceeds the 5%% budget"
      (overhead *. 100.);
  (* steady-state allocation: finite-difference words/event so per-run
     setup (arbiter arrays, accumulator pools, summary rows) cancels *)
  let engine = Lognic_sim.Engine.create () in
  let measure config =
    let spec =
      NS.Run.single ~config md5_graph ~hw:D.Liquidio.hardware ~traffic
    in
    ignore (NS.execute_with ~engine spec);
    let w0 = Gc.minor_words () in
    ignore (NS.execute_with ~engine spec);
    (Gc.minor_words () -. w0, Lognic_sim.Engine.executed engine)
  in
  let steady with_tenants =
    let config d =
      let c = base d in
      match with_tenants with
      | None -> c
      | Some n -> NS.Config.with_tenants (T.uniform n) c
    in
    let w1, e1 = measure (config 1e-2) in
    let w2, e2 = measure (config 2e-2) in
    (w2 -. w1) /. float_of_int (e2 - e1)
  in
  let wpe_plain = steady None in
  let wpe_2000 = steady (Some 2000) in
  let delta = wpe_2000 -. wpe_plain in
  Fmt.pr
    "steady-state allocation: untenanted %.3f words/event, 2000 VFs %.3f \
     words/event (delta %+.3f)@."
    wpe_plain wpe_2000 delta;
  if delta > 2.0 then
    fail_budget
      "2000-VF steady state allocates %.3f words/event above the untenanted \
       rate — per-tenant allocation crept into the hot loop (budget 2.0, \
       which covers the per-arrival tenant draw only)"
      delta

(* --- flow-cache gate (--flowcache-overhead) ---

   The state-dependent-split machinery at production rule scale. Two
   checks. First, identity (exit 4): a config that round-trips through
   [with_flow_cache]/[without_flow_cache] must run byte-identical to
   the untouched default — the flow rng only splits when a cache is
   configured, so a disabled run must leave every stream (and every
   byte of measurement JSON) exactly as a build without the feature
   would. Second, scale (exit 3): with a 1,000,000-flow Zipf
   population and production-sized tables (8192-entry EMC, 65536-entry
   megaflow) the steady-state minor-heap allocation rate — measured as
   a finite difference between a 2x and a 1x horizon, which cancels
   the O(flows) sampler/table setup — must not exceed the plain rate
   by more than the per-arrival flow draw: the alias lookup and both
   fixed-capacity LRUs are int-array machines that allocate nothing
   per packet. *)

let flowcache_overhead_gate () =
  let module NS = Lognic_sim.Netsim in
  let module App = Lognic_apps.Flow_cache in
  let spec_1m = Lognic.Flowcache.spec ~flows:1_000_000 () in
  let fc_graph = App.graph App.default in
  let traffic = App.traffic App.default in
  let base d = NS.Config.(default |> with_horizon ~warmup:2e-4 d) in
  let run config =
    NS.execute (NS.Run.single ~config fc_graph ~hw:App.hardware ~traffic)
  in
  let json = measurement_json in
  let plain_json = json (run (base 1e-2)) in
  let round_trip =
    NS.Config.(base 1e-2 |> with_flow_cache spec_1m |> without_flow_cache)
  in
  if json (run round_trip) <> plain_json then
    fail_identity
      "flow-cache round-tripped config is not byte-identical to the plain \
       run — clearing the cache left residue in the rng stream layout";
  Fmt.pr
    "flow-cache-off identity: OK (round-tripped config matches, %d bytes of \
     measurement JSON)@."
    (String.length plain_json);
  (* steady-state allocation: finite-difference words/event so the
     1M-entry sampler and table setup cancels between horizons *)
  let engine = Lognic_sim.Engine.create () in
  let measure config =
    let spec =
      NS.Run.single ~config fc_graph ~hw:App.hardware ~traffic
    in
    ignore (NS.execute_with ~engine spec);
    let w0 = Gc.minor_words () in
    ignore (NS.execute_with ~engine spec);
    (Gc.minor_words () -. w0, Lognic_sim.Engine.executed engine)
  in
  let steady with_cache =
    let config d =
      if with_cache then NS.Config.with_flow_cache spec_1m (base d)
      else base d
    in
    let w1, e1 = measure (config 1e-2) in
    let w2, e2 = measure (config 2e-2) in
    (w2 -. w1) /. float_of_int (e2 - e1)
  in
  let wpe_plain = steady false in
  let wpe_cached = steady true in
  let delta = wpe_cached -. wpe_plain in
  Fmt.pr
    "steady-state allocation: plain %.3f words/event, 1M-flow cache %.3f \
     words/event (delta %+.3f)@."
    wpe_plain wpe_cached delta;
  if delta > 2.0 then
    fail_budget
      "1M-flow steady state allocates %.3f words/event above the plain rate \
       — per-flow or per-packet allocation crept into the lookup hot loop \
       (budget 2.0, which covers the per-arrival flow draw only)"
      delta

(* --- events/sec headline gate (--events-per-sec) ---

   The engine-throughput headline: simulated events executed per
   wall-clock second on the reference md5 inline-accel workload, plus
   minor-heap words allocated per event. Three checks:

   Identity (exit 4): executing through a reused engine
   ([execute_with ~engine] on an engine that has already run) must
   produce measurement JSON byte-identical to a fresh-everything
   [execute] — engine reuse is a performance feature, never a results
   feature.

   Allocation ceiling (exit 3): words/event is deterministic, so it
   gates tightly against [words_per_event_ceiling] in
   bench/baseline_engine.json. The disabled-observer hot path
   allocates nothing per event; the measured residual is the stdlib
   Random.State draw floor plus rare calendar rebuilds. A blown
   ceiling means boxing crept back into the hot path — or the bench
   ran in the dev profile, whose hardwired -opaque disables the
   cross-module inlining the zero-allocation path is built on: run
   with [dune exec --profile release].

   Throughput floor (exit 3): events/sec must stay above 90% of
   [events_per_sec_floor] from the same baseline file. The committed
   floor sits well under healthy numbers so CI hardware variance
   cannot flake the gate; it catches collapses (an accidental O(log n)
   or re-boxed hot path), while finer regressions are the job of the
   uploaded artifact's trend line. Timing protocol as in the other
   gates: whole runs, compare minima.

   --json PATH writes the measured numbers for that artifact. *)

let baseline_number ~path ~key =
  let contents =
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let needle = "\"" ^ key ^ "\"" in
  let nlen = String.length needle and clen = String.length contents in
  let rec find i =
    if i + nlen > clen then
      failwith (Printf.sprintf "%s: missing key %s" path key)
    else if String.sub contents i nlen = needle then i + nlen
    else find (i + 1)
  in
  let i = ref (find 0) in
  while !i < clen && (contents.[!i] = ':' || contents.[!i] = ' ') do incr i done;
  let j = ref !i in
  let numeric c =
    (c >= '0' && c <= '9') || c = '.' || c = '-' || c = '+' || c = 'e' || c = 'E'
  in
  while !j < clen && numeric contents.[!j] do incr j done;
  float_of_string (String.sub contents !i (!j - !i))

let events_per_sec_gate () =
  let spec () = md5_spec gate_config in
  let fresh = measurement_json (Lognic_sim.Netsim.execute (spec ())) in
  let engine = Lognic_sim.Engine.create () in
  ignore (Lognic_sim.Netsim.execute_with ~engine (spec ()));
  let reused = Lognic_sim.Netsim.execute_with ~engine (spec ()) in
  if fresh <> measurement_json reused then
    fail_identity "reused-engine execute_with is not byte-identical to a fresh execute";
  Fmt.pr "engine-reuse identity: OK (%d bytes of measurement JSON)@."
    (String.length fresh);
  let run () = ignore (Lognic_sim.Netsim.execute_with ~engine (spec ())) in
  let w0 = Gc.minor_words () in
  run ();
  let words = Gc.minor_words () -. w0 in
  (* [execute_with] resets the engine on entry, so after a run the
     counter holds exactly that run's event count *)
  let events = Lognic_sim.Engine.executed engine in
  let words_per_event = words /. float_of_int events in
  let iters = if quick then 9 else 21 in
  let best = ref infinity in
  for _ = 1 to iters do
    let t0 = Unix.gettimeofday () in
    run ();
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  let events_per_sec = float_of_int events /. !best in
  Fmt.pr
    "engine headline: %d events in %.2f ms -> %.3e events/sec, %.2f \
     words/event, %d calendar rebuilds@."
    events (!best *. 1e3) events_per_sec words_per_event
    (Lognic_sim.Engine.queue_resizes engine);
  Option.iter
    (fun path ->
      let oc = open_out path in
      Printf.fprintf oc
        "{\n\
        \  \"schema\": \"engine_bench\",\n\
        \  \"schema_version\": 1,\n\
        \  \"events\": %d,\n\
        \  \"best_ms\": %.3f,\n\
        \  \"events_per_sec\": %.1f,\n\
        \  \"words_per_event\": %.3f,\n\
        \  \"queue_resizes\": %d\n\
         }\n"
        events (!best *. 1e3) events_per_sec words_per_event
        (Lognic_sim.Engine.queue_resizes engine);
      close_out oc)
    cli.json;
  let baseline = "bench/baseline_engine.json" in
  if not (Sys.file_exists baseline) then
    Fmt.epr "warning: %s not found (run from the repo root?), floor and \
             ceiling unchecked@."
      baseline
  else begin
    let floor_eps = baseline_number ~path:baseline ~key:"events_per_sec_floor" in
    let ceil_wpe =
      baseline_number ~path:baseline ~key:"words_per_event_ceiling"
    in
    if words_per_event > ceil_wpe then
      fail_budget
        "%.2f words/event exceeds the %.2f ceiling — boxing returned to the \
         hot path, or this is a dev-profile build (-opaque defeats the \
         inlining; use dune exec --profile release)"
        words_per_event ceil_wpe;
    if events_per_sec < 0.9 *. floor_eps then
      fail_budget "%.3e events/sec is >10%% below the committed %.3e floor"
        events_per_sec floor_eps;
    Fmt.pr "events/sec floor OK (>= 0.9 x %.2e), words/event ceiling OK \
            (<= %.1f)@."
      floor_eps ceil_wpe
  end

(* --- JSON dump (--json PATH) --- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json path ~rows ~wall_s =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"results\": [";
  List.iteri
    (fun i (name, ns) ->
      Printf.fprintf oc "%s\n    { \"name\": \"%s\", \"ns_per_run\": %.1f }"
        (if i = 0 then "" else ",")
        (json_escape name) ns)
    rows;
  Printf.fprintf oc "\n  ],\n  \"wall_s\": %.3f\n}\n" wall_s;
  close_out oc

let () =
  if
    cli.trace_overhead || cli.fault_overhead || cli.invariant_overhead
    || cli.contention_overhead || cli.metrics_overhead || cli.tenant_overhead
    || cli.flowcache_overhead || cli.events_per_sec
  then begin
    if cli.trace_overhead then trace_overhead_gate ();
    if cli.fault_overhead then fault_overhead_gate ();
    if cli.invariant_overhead then invariant_overhead_gate ();
    if cli.contention_overhead then contention_overhead_gate ();
    if cli.metrics_overhead then metrics_overhead_gate ();
    if cli.tenant_overhead then tenant_overhead_gate ();
    if cli.flowcache_overhead then flowcache_overhead_gate ();
    if cli.events_per_sec then events_per_sec_gate ();
    exit 0
  end;
  let started = Unix.gettimeofday () in
  if not cli.bench_only then render_figures ();
  let figures_wall = Unix.gettimeofday () -. started in
  let rows = if cli.figures_only then [] else run_benchmarks () in
  Option.iter
    (fun path ->
      (* wall_s is the figure-regeneration wall-clock when figures ran
         (the quantity --jobs accelerates); otherwise the total. *)
      let wall_s =
        if cli.bench_only then Unix.gettimeofday () -. started else figures_wall
      in
      write_json path ~rows ~wall_s)
    cli.json
