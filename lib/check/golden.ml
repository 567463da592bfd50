(* Golden byte-identity scenarios for the simulator.

   Each scenario is a fully pinned [Netsim.Run.t] — fixed seed, fixed
   duration, fixed traffic — whose measurement JSON is captured once
   (test/golden/gen.exe writes the fixtures) and asserted byte-equal on
   every test run.  The fixtures in test/golden/*.json were generated
   with the pre-calendar-queue binary-heap engine, so they pin the
   engine overhaul to the exact event ordering, rng stream layout and
   float operation order of the original implementation: any change to
   pop order, draw order or summation order shows up as a one-byte
   diff.

   The set deliberately crosses the feature matrix: arrival processes
   (Poisson / Paced / Bursty), service distributions, multi-class
   mixes, overload (queue and buffer drops), sampling probes, and a
   fault plan (extra rng stream + per-packet bin accounting). *)

module Sim = Lognic_sim
module D = Lognic_devices
module T = Lognic.Traffic
module U = Lognic.Units

let config ?(seed = 7) ?(duration = 2e-3) ?sample_interval
    ?(service_dist = Sim.Ip_node.Exponential)
    ?(arrival = Sim.Traffic_gen.Poisson) () =
  let c =
    Sim.Netsim.Config.(
      default |> with_seed seed |> with_horizon duration
      |> with_service_dist service_dist
      |> with_arrival arrival)
  in
  match sample_interval with
  | None -> c
  | Some dt -> Sim.Netsim.Config.with_sampling dt c

let md5_graph () =
  D.Liquidio.inline_accel_graph ~spec:D.Accel_spec.md5 ~packet_size:U.mtu ()

let md5_traffic = T.make ~rate:D.Liquidio.line_rate ~packet_size:U.mtu

let scenarios () =
  [
    ( "md5-poisson-exp",
      Sim.Netsim.Run.single ~config:(config ()) (md5_graph ())
        ~hw:D.Liquidio.hardware ~traffic:md5_traffic );
    ( "md5-paced-det-sampled",
      Sim.Netsim.Run.single
        ~config:
          (config ~seed:3 ~sample_interval:1e-4
             ~service_dist:Sim.Ip_node.Deterministic
             ~arrival:Sim.Traffic_gen.Paced ())
        (md5_graph ()) ~hw:D.Liquidio.hardware ~traffic:md5_traffic );
    ( "md5-bursty-overload",
      Sim.Netsim.Run.single
        ~config:
          (config ~seed:5
             ~arrival:(Sim.Traffic_gen.Bursty { burstiness = 4.; mean_on = 2e-4 })
             ())
        (md5_graph ()) ~hw:D.Liquidio.hardware
        ~traffic:(T.make ~rate:(2. *. D.Liquidio.line_rate) ~packet_size:U.mtu) );
    ( "nvme-mix",
      Sim.Netsim.Run.make
        ~config:(config ~seed:11 ())
        (D.Stingray.nvme_of_graph ~io:D.Ssd.rrd_4k ())
        ~hw:D.Stingray.hardware
        ~mix:
          [
            (T.make ~rate:1.2e9 ~packet_size:(4. *. U.kib), 0.7);
            (T.make ~rate:3e8 ~packet_size:512., 0.3);
          ] );
    ( "md5-faults",
      Sim.Netsim.Run.single
        ~config:(config ~seed:9 ())
        ~faults:
          [
            Sim.Faults.engine_down ~vertex:"ip2.MD5" ~engines:1 ~start:5e-4
              ~stop:1e-3;
            Sim.Faults.medium_degraded ~medium:"interface" ~factor:0.5
              ~start:4e-4 ~stop:8e-4;
            Sim.Faults.drop_burst ~probability:0.25 ~start:1e-3 ~stop:1.4e-3;
          ]
        (md5_graph ()) ~hw:D.Liquidio.hardware ~traffic:md5_traffic );
  ]

let measurement_string run =
  Sim.Telemetry.Json.to_string
    (Sim.Netsim.measurement_to_json (Sim.Netsim.execute run))

(* Contended two-class workload, pinned end to end: the joint
   multi-class model with the multi-resource interference layer against
   a fixed-seed simulation, captured as the full contention-report JSON
   (per-class residuals, slowdowns, resource ceilings, ranked
   interference).  One fixture pins the model math and the report
   serialization together. *)
(* Pinned metrics stream: a fixed-seed run with the live registry
   ticking every 100 µs and an SLO rule that fires and resolves inside
   the window, captured as the concatenated NDJSON the [on_snapshot]
   sink emits.  The fixture pins the instrument catalog, sampling
   order, delta/rate arithmetic, alert transitions and the streaming
   serializer's byte output in one comparison. *)
(* A metrics config whose snapshots stream as NDJSON into [buf]. *)
let ndjson_metrics ?(slo = []) buf interval =
  {
    Sim.Metrics.default_config with
    interval;
    slo;
    on_snapshot =
      Some
        (fun snap ->
          Sim.Metrics.snapshot_to_buffer buf snap;
          Buffer.add_char buf '\n');
  }

let metrics_scenarios () =
  [
    ( "metrics-stream",
      fun () ->
        let buf = Buffer.create 65536 in
        let slo =
          [
            Sim.Metrics.Slo.parse_exn "*.utilization>0.5x2";
            Sim.Metrics.Slo.parse_exn "run.dropped>0";
          ]
        in
        let metrics = ndjson_metrics ~slo buf 1e-4 in
        let config = Sim.Netsim.Config.with_metrics metrics (config ~seed:21 ()) in
        ignore
          (Sim.Netsim.execute (Sim.Netsim.Run.single ~config (md5_graph ())
             ~hw:D.Liquidio.hardware ~traffic:md5_traffic));
        Buffer.contents buf );
  ]

(* Pinned multi-tenant run: 16 VFs — three differentiated tenants
   (weights, skewed shares, SLOs) plus a uniform background population —
   under moderate md5-workload load, captured as the versioned
   [kind:"tenants"] report JSON.  One fixture pins the hierarchical
   two-stage arbiter's grant order, the tenant rng stream layout, the
   per-VF attribution windowing, the fairness indices and the
   per-tenant analytic decomposition in a single byte comparison. *)
let tenant_scenarios () =
  [
    ( "tenants-md5-16vf",
      fun () ->
        let tenants =
          Sim.Tenant.set
            (Sim.Tenant.spec ~weight:8 ~share:4. ~slo_p99:1e-3 "gold"
            :: Sim.Tenant.spec ~weight:4 ~share:2. ~slo_p99:5e-3 "silver"
            :: Sim.Tenant.spec ~weight:2 "bronze"
            :: List.init 13 (fun i ->
                   Sim.Tenant.spec (Printf.sprintf "vf%02d" i)))
        in
        let report =
          Sim.Explain.run_tenants
            ~config:(config ~seed:13 ())
            (md5_graph ()) ~hw:D.Liquidio.hardware
            ~traffic:
              (T.make ~rate:(D.Liquidio.line_rate /. 2.) ~packet_size:U.mtu)
            ~tenants
        in
        Sim.Telemetry.Json.to_string (Sim.Explain.tenants_to_json report) );
  ]

(* Pinned flow-cache run: an OVS-style EMC → megaflow → slow-path
   datapath over a 4096-flow Zipf(1.1) population with tables small
   enough (256/1024 entries) to reach cache steady state inside the
   window, captured as the versioned [kind:"flowcache"] report JSON.
   One fixture pins the alias-method flow sampler, the fixed-capacity
   LRU eviction order, the flow rng stream layout, the per-class
   latency histograms and the model's fixed-point join in a single
   byte comparison. *)
let flowcache_scenarios () =
  [
    ( "flowcache-zipf",
      fun () ->
        let spec =
          Lognic.Flowcache.spec ~zipf:1.1 ~emc_entries:256
            ~megaflow_entries:1024 ~flows:4096 ()
        in
        let app = Lognic_apps.Flow_cache.default in
        let report =
          Sim.Explain.run_flowcache
            ~config:(config ~seed:17 ~duration:5e-3 ())
            spec
            (Lognic_apps.Flow_cache.graph app)
            ~hw:Lognic_apps.Flow_cache.hardware
            ~traffic:(Lognic_apps.Flow_cache.traffic app)
        in
        Sim.Telemetry.Json.to_string (Sim.Explain.flowcache_to_json report) );
  ]

let contention_scenarios () =
  [
    ( "contended-two-class",
      fun () ->
        let mix =
          [
            ( T.make ~rate:(D.Liquidio.line_rate /. 2.) ~packet_size:U.mtu,
              0.6 );
            (T.make ~rate:(D.Liquidio.line_rate /. 4.) ~packet_size:512., 0.4);
          ]
        in
        let contention =
          Lognic.Extensions.contention
            ~demands:
              [ [ ("l2-fill", 1.) ]; [ ("l2-fill", 1.); ("dram", 0.5) ] ]
            ~interference:[| [| 0.; 0.6 |]; [| 0.3; 0. |] |]
        in
        let report =
          Sim.Contention.run
            ~config:(config ~seed:13 ())
            ~contention (md5_graph ()) ~hw:D.Liquidio.hardware ~mix
        in
        Sim.Telemetry.Json.to_string (Sim.Contention.to_json report) );
  ]

(* Pinned feature composition: one fixed-seed flow-cache run with every
   optional feature on at once — series sampling, tracing, invariant
   checking, a live metrics stream, three tenants, the flow cache and a
   three-fault plan (engine loss, interface degradation, drop burst).
   The other fixtures each pin one feature; this one pins how they
   compose: the rng split order (generator, router, nodes, fault,
   tenant, flow, trace), which arrivals draw from each optional stream,
   the metrics instrument order with tenant gauges last, and the
   invariant checks that read fault state.  It renders two texts: the
   measurement, tenant, flow-cache, invariant and Chrome-trace JSON as
   one object, and the NDJSON metrics stream. *)
let all_features_scenarios () =
  [
    ( "all-features",
      fun () ->
        let buf = Buffer.create 65536 in
        let spec =
          Lognic.Flowcache.spec ~zipf:1.1 ~emc_entries:256
            ~megaflow_entries:1024 ~flows:4096 ()
        in
        let app = Lognic_apps.Flow_cache.default in
        let config =
          Sim.Netsim.Config.(
            default |> with_seed 23 |> with_horizon 5e-3
            |> with_sampling 5e-4
            |> with_trace Sim.Trace.default_config
            |> with_invariants true
            |> with_metrics (ndjson_metrics buf 5e-4)
            |> with_tenants (Sim.Tenant.uniform 3)
            |> with_flow_cache spec)
        in
        let faults =
          [
            Sim.Faults.engine_down ~vertex:"megaflow" ~engines:4 ~start:1e-3
              ~stop:2e-3;
            Sim.Faults.medium_degraded ~medium:"interface" ~factor:0.5
              ~start:1.5e-3 ~stop:2.5e-3;
            Sim.Faults.drop_burst ~probability:0.2 ~start:3e-3 ~stop:3.5e-3;
          ]
        in
        let m =
          Sim.Netsim.execute
            (Sim.Netsim.Run.single ~config ~faults
               (Lognic_apps.Flow_cache.graph app)
               ~hw:Lognic_apps.Flow_cache.hardware
               ~traffic:(Lognic_apps.Flow_cache.traffic app))
        in
        let module J = Sim.Telemetry.Json in
        let opt f = function None -> J.Null | Some x -> f x in
        let json =
          J.Obj
            [
              ("measurement", Sim.Netsim.measurement_to_json m);
              ("tenants", opt Sim.Tenant.stats_to_json m.tenants);
              ("flow_cache", opt Sim.Flow_cache.stats_to_json m.flow_cache);
              ("invariants", opt Sim.Invariants.report_to_json m.invariants);
              ("trace", opt Sim.Trace.to_chrome_json m.trace);
            ]
        in
        (J.to_string json, Buffer.contents buf) );
  ]
