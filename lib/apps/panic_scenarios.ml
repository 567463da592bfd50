module P = Lognic_devices.Panic
module U = Lognic.Units
module T = Lognic.Traffic

type traffic_profile = { pname : string; sizes : (float * float) list }

let equal_mix sizes = List.map (fun s -> (s, 1.)) sizes

let profiles =
  [
    { pname = "profile1"; sizes = equal_mix [ 64.; 512. ] };
    { pname = "profile2"; sizes = equal_mix [ 64.; 512.; 1024. ] };
    { pname = "profile3"; sizes = equal_mix [ 64.; 256.; 512.; 1500. ] };
    { pname = "profile4"; sizes = equal_mix [ 64.; 128.; 256.; 1024.; 1500. ] };
  ]

type credit_point = {
  credits : int;
  measured_bandwidth : float;
  model_bandwidth : float;
  model_latency : float;
}

let default_offered = 85. *. U.gbps

(* Model goodput and latency for one credit setting. The mixed profile
   is folded into the units' effective rates (harmonic-mean packet
   size; see Panic.effective_unit_rate), so a single-class evaluation
   at the mix's mean size reproduces the per-unit utilization exactly —
   the μ-accommodation Extension #2 prescribes for mixed traffic. *)
let model_point ~offered ~profile ~credits =
  let mix = T.mix_of_sizes ~rate:offered ~sizes:profile.sizes in
  let g = P.pipelined_graph ~credits ~sizes:profile.sizes () in
  let traffic =
    T.make ~rate:offered ~packet_size:(T.mean_packet_size_by_packets mix)
  in
  let report = Lognic.Latency.evaluate g ~hw:P.hardware ~traffic in
  (report.Lognic.Latency.carried_rate, report.Lognic.Latency.mean)

let fig15_credit_sweep ?(duration = 0.03) ?(seed = 11) ?jobs
    ?(offered = default_offered) ~profile () =
  (* One independent fixed-seed simulation per credit setting; fan the
     sweep over the domain pool (order and results unchanged). *)
  Lognic_sim.Parallel.map ?jobs
    (fun i ->
      let credits = i + 1 in
      let mix = T.mix_of_sizes ~rate:offered ~sizes:profile.sizes in
      let g = P.pipelined_graph ~credits ~sizes:profile.sizes () in
      let m =
        Lognic_sim.Netsim.execute (Lognic_sim.Netsim.Run.make
          ~config:(Study.sim_config ~seed:(seed + credits) duration)
          g ~hw:P.hardware ~mix)
      in
      let model_bandwidth, model_latency = model_point ~offered ~profile ~credits in
      {
        credits;
        measured_bandwidth = m.summary.Lognic_sim.Telemetry.throughput;
        model_bandwidth;
        model_latency;
      })
    (List.init 8 Fun.id)

let suggest_credits ?(offered = default_offered) ~profile () =
  (* Fewest credits whose goodput stays within 7% of the 8-credit
     default's. The unit operates near saturation in this scenario, so
     M/M/1/N blocking decays slowly in N and a plateau slack tighter
     than a few percent would never admit a smaller queue. *)
  let goodput credits = fst (model_point ~offered ~profile ~credits) in
  let reference = goodput 8 in
  let rec scan credits =
    if credits >= 8 then 8
    else if goodput credits >= 0.93 *. reference then credits
    else scan (credits + 1)
  in
  scan 1

let latency_drop_vs_default ?(offered = default_offered) ~profile () =
  let suggested = suggest_credits ~offered ~profile () in
  let _, lat_suggested = model_point ~offered ~profile ~credits:suggested in
  let _, lat_default = model_point ~offered ~profile ~credits:8 in
  if lat_default <= 0. then 0. else 1. -. (lat_suggested /. lat_default)

type steering_point = {
  split_label : string;
  x_percent : float;
  latency : float;
  throughput : float;
}

let static_splits = [ 10.; 30.; 50.; 70. ]
let steering_offered = 80. *. U.gbps

let steering_eval ~offered ~packet_size x =
  let g =
    P.parallelized_graph ~split:(20., x, 80. -. x) ~packet_size ()
  in
  let traffic = T.make ~rate:offered ~packet_size in
  let report = Lognic.Estimate.run g ~hw:P.hardware ~traffic in
  ( report.latency.Lognic.Latency.mean,
    Float.min report.latency.Lognic.Latency.carried_rate
      report.throughput.Lognic.Throughput.attained )

let optimal_split ~packet_size ~offered =
  let objective x = fst (steering_eval ~offered ~packet_size x) in
  let x, _ =
    Lognic_numerics.Golden.minimize ~tol:0.05 ~f:objective ~lo:1. ~hi:79. ()
  in
  x

let fig16_17_steering ?(offered = steering_offered) ~packet_size () =
  let static =
    List.map
      (fun x ->
        let latency, throughput = steering_eval ~offered ~packet_size x in
        {
          split_label = Printf.sprintf "%.0f/%.0f" x (80. -. x);
          x_percent = x;
          latency;
          throughput;
        })
      static_splits
  in
  let x = optimal_split ~packet_size ~offered in
  let latency, throughput = steering_eval ~offered ~packet_size x in
  static
  @ [ { split_label = "LogNIC"; x_percent = x; latency; throughput } ]

type parallelism_point = { degree : int; p_latency : float; p_throughput : float }

let parallelism_offered = 95. *. U.gbps
let mtu_traffic offered = T.make ~rate:offered ~packet_size:U.mtu

let fig18_19_parallelism ?(offered = parallelism_offered) ?jobs ~split () =
  Lognic_sim.Parallel.map ?jobs
    (fun i ->
      let degree = i + 1 in
      let g = P.hybrid_graph ~ip4_parallelism:degree ~ip1_split:split ~packet_size:U.mtu () in
      let report =
        Lognic.Estimate.run g ~hw:P.hardware ~traffic:(mtu_traffic offered)
      in
      {
        degree;
        p_latency = report.latency.Lognic.Latency.mean;
        p_throughput =
          Float.min
            report.latency.Lognic.Latency.carried_rate
            report.throughput.Lognic.Throughput.attained;
      })
    (List.init 8 Fun.id)

let suggest_parallelism ?(offered = parallelism_offered) ~split () =
  let points = fig18_19_parallelism ~offered ~split () in
  let best_tp =
    List.fold_left (fun acc p -> Float.max acc p.p_throughput) 0. points
  in
  let best_lat =
    List.fold_left (fun acc p -> Float.min acc p.p_latency) infinity points
  in
  ignore best_lat;
  (* The goal is performance maximization (§4.6): the fewest engines
     within 1% of the achievable throughput. *)
  let ok p = p.p_throughput >= 0.99 *. best_tp in
  match List.find_opt ok points with
  | Some p -> p.degree
  | None -> 8
