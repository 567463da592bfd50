module G = Lognic.Graph
module U = Lognic.Units
module D = Lognic_devices

type point = { x : float; model : float; measured : float }

let line_traffic ~packet_size =
  Lognic.Traffic.make ~rate:D.Liquidio.line_rate ~packet_size

(* Operations per second = delivered packet rate (one accelerator call
   per packet). *)
let ops_of_bytes ~packet_size bytes_per_s = bytes_per_s /. packet_size

let default_granularities =
  [ 512.; 1024.; 2048.; 4096.; 8192.; 16384. ]

let fig5_granularity_sweep ?(duration = 0.05) ?seed ?jobs ?granularities ~spec
    () =
  let granularities = Option.value granularities ~default:default_granularities in
  let packet_size = 1024. in
  let traffic = line_traffic ~packet_size in
  (* Each point runs an independent fixed-seed simulation; fan the
     sweep out over the domain pool (order and results unchanged). *)
  Lognic_sim.Parallel.map ?jobs
    (fun granularity ->
      let g =
        D.Liquidio.inline_accel_graph ~granularity ~spec ~packet_size ()
      in
      let report = Lognic.Estimate.run g ~hw:D.Liquidio.hardware ~traffic in
      let m =
        Lognic_sim.Netsim.execute (Lognic_sim.Netsim.Run.single
          ~config:(Study.sim_config ?seed duration)
          g ~hw:D.Liquidio.hardware ~traffic)
      in
      {
        x = granularity;
        model = ops_of_bytes ~packet_size report.throughput.Lognic.Throughput.attained;
        measured = ops_of_bytes ~packet_size m.summary.Lognic_sim.Telemetry.throughput;
      })
    granularities

let fig9_parallelism_sweep ?(duration = 0.05) ?seed ?jobs ?cores ~spec () =
  let cores = Option.value cores ~default:(List.init 16 (fun i -> i + 1)) in
  let packet_size = U.mtu in
  let traffic = line_traffic ~packet_size in
  Lognic_sim.Parallel.map ?jobs
    (fun n ->
      let g = D.Liquidio.inline_accel_graph ~cores:n ~spec ~packet_size () in
      let report = Lognic.Estimate.run g ~hw:D.Liquidio.hardware ~traffic in
      let m =
        Lognic_sim.Netsim.execute (Lognic_sim.Netsim.Run.single
          ~config:(Study.sim_config ?seed duration)
          g ~hw:D.Liquidio.hardware ~traffic)
      in
      {
        x = float_of_int n;
        model = ops_of_bytes ~packet_size report.throughput.Lognic.Throughput.attained;
        measured = ops_of_bytes ~packet_size m.summary.Lognic_sim.Telemetry.throughput;
      })
    cores

let required_cores ~spec =
  let packet_size = U.mtu in
  let traffic = line_traffic ~packet_size in
  let attained n =
    let g = D.Liquidio.inline_accel_graph ~cores:n ~spec ~packet_size () in
    (Lognic.Throughput.evaluate g ~hw:D.Liquidio.hardware ~traffic)
      .Lognic.Throughput.attained
  in
  let saturation = attained D.Liquidio.total_cores in
  let rec scan n =
    if n >= D.Liquidio.total_cores then n
    else if attained n >= 0.99 *. saturation then n
    else scan (n + 1)
  in
  scan 1

let default_sizes = [ 64.; 128.; 256.; 512.; 1024.; U.mtu ]

let fig10_packet_size_sweep ?(duration = 0.05) ?seed ?jobs ?sizes ~spec () =
  let sizes = Option.value sizes ~default:default_sizes in
  Lognic_sim.Parallel.map ?jobs
    (fun packet_size ->
      let traffic = line_traffic ~packet_size in
      let g = D.Liquidio.inline_accel_graph ~spec ~packet_size () in
      let report = Lognic.Estimate.run g ~hw:D.Liquidio.hardware ~traffic in
      let m =
        Lognic_sim.Netsim.execute (Lognic_sim.Netsim.Run.single
          ~config:(Study.sim_config ?seed duration)
          g ~hw:D.Liquidio.hardware ~traffic)
      in
      {
        x = packet_size;
        model = report.throughput.Lognic.Throughput.attained;
        measured = m.summary.Lognic_sim.Telemetry.throughput;
      })
    sizes

let bottleneck_at ~spec ~packet_size ~cores =
  let g = D.Liquidio.inline_accel_graph ~cores ~spec ~packet_size () in
  let traffic = line_traffic ~packet_size in
  let result = Lognic.Throughput.evaluate g ~hw:D.Liquidio.hardware ~traffic in
  Fmt.str "%a" (Lognic.Throughput.pp_bound g) result.Lognic.Throughput.bottleneck
