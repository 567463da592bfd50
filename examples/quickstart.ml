(* Quickstart: model a tiny SmartNIC program, estimate its performance
   with the LogNIC analytical model, cross-check against the packet
   simulator, and ask the optimizer a question.

   Run with: dune exec examples/quickstart.exe *)

module G = Lognic.Graph
module U = Lognic.Units

let () =
  (* 1. Describe the offloaded program as an execution graph:
        a 25 GbE port feeding a 4-core NIC processor that forwards
        everything to a crypto engine and out the TX port. *)
  let g = G.empty in
  let g, rx =
    G.add_vertex ~kind:G.Ingress ~label:"rx"
      ~service:(G.service ~throughput:(25. *. U.gbps) ())
      g
  in
  let g, cores =
    G.add_vertex ~kind:G.Ip ~label:"nic-cores"
      ~service:
        (G.service
           ~throughput:(8. *. U.gbps)
           ~parallelism:4 ~queue_capacity:64 ~overhead:(1. *. U.usec) ())
      g
  in
  let g, crypto =
    G.add_vertex ~kind:G.Ip ~label:"crypto"
      ~service:(G.service ~throughput:(12. *. U.gbps) ~queue_capacity:32 ())
      g
  in
  let g, tx =
    G.add_vertex ~kind:G.Egress ~label:"tx"
      ~service:(G.service ~throughput:(25. *. U.gbps) ())
      g
  in
  (* Edges carry the whole workload (delta = 1); the hop into the crypto
     engine crosses the memory subsystem (beta = 1). *)
  let g = G.add_edge ~delta:1. ~src:rx ~dst:cores g in
  let g = G.add_edge ~delta:1. ~beta:1. ~src:cores ~dst:crypto g in
  let g = G.add_edge ~delta:1. ~src:crypto ~dst:tx g in

  (* 2. Device-wide hardware parameters and a traffic profile. *)
  let hw =
    Lognic.Params.hardware
      ~bw_interface:(40. *. U.gbps)
      ~bw_memory:(50. *. U.gbps)
  in
  let traffic = Lognic.Traffic.make ~rate:(6. *. U.gbps) ~packet_size:U.mtu in

  (* 3. Estimation mode: throughput with bottleneck attribution, and
        mean latency with a per-path breakdown. *)
  let report = Lognic.Estimate.run g ~hw ~traffic in
  Fmt.pr "--- LogNIC estimate ---@.%a@." (Lognic.Estimate.pp_report g) report;

  (* 4. Cross-check against the packet-level simulator. *)
  let m = Lognic_sim.Netsim.execute (Lognic_sim.Netsim.Run.single g ~hw ~traffic) in
  Fmt.pr "--- simulator ---@.";
  Fmt.pr "throughput: %.3f Gbps, mean latency: %.2f us, p99: %.2f us@."
    (U.to_gbps m.summary.Lognic_sim.Telemetry.throughput)
    (U.to_usec m.summary.Lognic_sim.Telemetry.mean_latency)
    (U.to_usec m.summary.Lognic_sim.Telemetry.p99_latency);

  (* 5. Optimizer mode: how many queue entries does the crypto engine
        really need to sustain this load? *)
  let solution =
    Lognic.Optimizer.optimize g ~hw ~traffic
      ~knobs:[ Lognic.Optimizer.Queue_capacity (crypto, 1, 32) ]
      (Lognic.Optimizer.Minimize_latency_min_throughput (5.9 *. U.gbps))
  in
  Fmt.pr "--- optimizer ---@.";
  List.iter
    (fun a -> Fmt.pr "%a@." Lognic.Optimizer.pp_assignment a)
    solution.assignment;
  Fmt.pr "feasible: %b, latency: %.2f us@." solution.feasible
    (U.to_usec solution.report.latency.Lognic.Latency.mean);

  (* 6. Tail latency (an extension beyond the paper: §4.7 says the
        model cannot estimate the tail — ours can, see Lognic.Tail). *)
  let tail = Lognic.Tail.overall (Lognic.Tail.evaluate g ~hw ~traffic) in
  Fmt.pr "--- tail estimate ---@.p50 %.2f us, p90 %.2f us, p99 %.2f us@."
    (U.to_usec tail.p50) (U.to_usec tail.p90) (U.to_usec tail.p99);

  (* 7. Sensitivity: which parameter is worth upgrading? *)
  let elasticities = Lognic.Sensitivity.analyze g ~hw ~traffic in
  Fmt.pr "--- sensitivity ---@.most binding parameter: %a@."
    (Lognic.Sensitivity.pp_parameter g)
    (Lognic.Sensitivity.most_binding elasticities)
