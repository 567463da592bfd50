(* Tests for the tail-latency extension and its supporting gamma
   numerics, plus the bursty-arrival and multi-queue/WRR simulator
   features and the head-of-line blocking study. *)

open Helpers
module N = Lognic_numerics
module G = Lognic.Graph
module U = Lognic.Units
module T = Lognic.Traffic
module S = Lognic_sim

(* Gamma numerics *)

let gamma_log_gamma () =
  (* Γ(1) = Γ(2) = 1, Γ(5) = 24, Γ(1/2) = sqrt(pi) *)
  check_close ~tol:1e-10 "ln Γ(1)" 0. (N.Gamma.log_gamma 1.);
  check_close ~tol:1e-10 "ln Γ(2)" 0. (N.Gamma.log_gamma 2.);
  check_close ~tol:1e-9 "ln Γ(5)" (log 24.) (N.Gamma.log_gamma 5.);
  check_close ~tol:1e-9 "ln Γ(0.5)" (0.5 *. log Float.pi) (N.Gamma.log_gamma 0.5);
  check_raises_invalid "domain" (fun () -> N.Gamma.log_gamma 0.)

let gamma_cdf_exponential_case () =
  (* shape 1 is the exponential distribution *)
  List.iter
    (fun x ->
      check_close ~tol:1e-9
        (Printf.sprintf "exp CDF at %g" x)
        (1. -. exp (-.x))
        (N.Gamma.cdf ~shape:1. ~scale:1. x))
    [ 0.1; 0.5; 1.; 2.; 5. ]

let gamma_cdf_erlang_case () =
  (* Erlang(2, 1): CDF = 1 - e^-x (1 + x) *)
  List.iter
    (fun x ->
      check_close ~tol:1e-9
        (Printf.sprintf "erlang2 CDF at %g" x)
        (1. -. (exp (-.x) *. (1. +. x)))
        (N.Gamma.cdf ~shape:2. ~scale:1. x))
    [ 0.2; 1.; 3.; 8. ]

let gamma_quantile_inverts_cdf () =
  List.iter
    (fun (shape, scale) ->
      List.iter
        (fun p ->
          let x = N.Gamma.quantile ~shape ~scale p in
          check_close ~tol:1e-6
            (Printf.sprintf "roundtrip shape=%g p=%g" shape p)
            p
            (N.Gamma.cdf ~shape ~scale x))
        [ 0.01; 0.5; 0.9; 0.99; 0.999 ])
    [ (0.5, 2.); (1., 1.); (3.7, 0.25); (40., 10.) ]

let gamma_of_moments () =
  (match N.Gamma.of_moments ~mean:6. ~variance:12. with
  | Some (shape, scale) ->
    check_close "shape" 3. shape;
    check_close "scale" 2. scale
  | None -> Alcotest.fail "valid moments rejected");
  Alcotest.(check bool)
    "degenerate" true
    (N.Gamma.of_moments ~mean:1. ~variance:0. = None)

(* Tail model *)

let hw = Lognic.Params.hardware ~bw_interface:(50. *. U.gbps) ~bw_memory:(60. *. U.gbps)

let chain ?(queue = 32) ?(rate = 4. *. U.gbps) () =
  let svc t = G.service ~throughput:t () in
  let g = G.empty in
  let g, i = G.add_vertex ~kind:G.Ingress ~label:"in" ~service:(svc (25. *. U.gbps)) g in
  let g, w =
    G.add_vertex ~kind:G.Ip ~label:"ip"
      ~service:(G.service ~throughput:rate ~queue_capacity:queue ())
      g
  in
  let g, e = G.add_vertex ~kind:G.Egress ~label:"out" ~service:(svc (25. *. U.gbps)) g in
  let g = G.add_edge ~delta:1. ~src:i ~dst:w g in
  let g = G.add_edge ~delta:1. ~src:w ~dst:e g in
  g

let tail_mean_agrees_with_latency () =
  let g = chain () in
  List.iter
    (fun load ->
      let traffic = T.make ~rate:(load *. 4. *. U.gbps) ~packet_size:1500. in
      let tail = Lognic.Tail.evaluate g ~hw ~traffic in
      let latency = Lognic.Latency.evaluate g ~hw ~traffic in
      check_within ~pct:0.5 "tail mean = latency mean"
        latency.Lognic.Latency.mean
        (Lognic.Tail.overall tail).q_mean)
    [ 0.3; 0.7; 0.95 ]

let tail_quantiles_ordered () =
  let g = chain () in
  let traffic = T.make ~rate:(3. *. U.gbps) ~packet_size:1500. in
  let q = Lognic.Tail.overall (Lognic.Tail.evaluate g ~hw ~traffic) in
  Alcotest.(check bool) "p50 < mean < p99" true (q.p50 < q.q_mean && q.q_mean < q.p99);
  Alcotest.(check bool) "p50 < p90 < p99" true (q.p50 < q.p90 && q.p90 < q.p99)

let tail_matches_simulator () =
  let g = chain () in
  List.iter
    (fun load ->
      let traffic = T.make ~rate:(load *. 4. *. U.gbps) ~packet_size:1500. in
      let tail = Lognic.Tail.overall (Lognic.Tail.evaluate g ~hw ~traffic) in
      let m =
        S.Netsim.execute (S.Netsim.Run.single
          ~config:S.Netsim.Config.(default |> with_horizon 0.5)
          g ~hw ~traffic)
      in
      check_within ~pct:10.
        (Printf.sprintf "p50 at load %g" load)
        m.summary.S.Telemetry.p50_latency tail.p50;
      check_within ~pct:15.
        (Printf.sprintf "p99 at load %g" load)
        m.summary.S.Telemetry.p99_latency tail.p99)
    [ 0.4; 0.7; 0.9 ]

let tail_quantile_function () =
  let g = chain () in
  let traffic = T.make ~rate:(2.8 *. U.gbps) ~packet_size:1500. in
  let r = Lognic.Tail.evaluate g ~hw ~traffic in
  let q = Lognic.Tail.overall r in
  check_close ~tol:1e-6 "quantile(0.5) = p50" q.p50 (Lognic.Tail.quantile r 0.5);
  check_close ~tol:1e-6 "quantile(0.99) = p99" q.p99 (Lognic.Tail.quantile r 0.99);
  Alcotest.(check bool)
    "p999 beyond p99" true
    (Lognic.Tail.quantile r 0.999 > q.p99);
  check_raises_invalid "domain" (fun () -> ignore (Lognic.Tail.quantile r 1.5))

let tail_mmcn_below_mm1n () =
  (* a 4-engine vertex has a lighter tail than Eq 12 predicts *)
  let g = chain () in
  let g =
    G.update_service g 1 (fun s -> { s with G.parallelism = 4 })
  in
  let traffic = T.make ~rate:(3.4 *. U.gbps) ~packet_size:1500. in
  let mm1n =
    Lognic.Tail.overall (Lognic.Tail.evaluate ~model:Lognic.Latency.Mm1n_model g ~hw ~traffic)
  in
  let mmcn =
    Lognic.Tail.overall (Lognic.Tail.evaluate ~model:Lognic.Latency.Mmcn_model g ~hw ~traffic)
  in
  Alcotest.(check bool) "multi-server tail lighter" true (mmcn.p99 < mm1n.p99)

let tail_multipath_mixture () =
  (* fast path and slow path: the overall p99 must reflect the slow one *)
  let svc t = G.service ~throughput:t () in
  let g = G.empty in
  let g, i = G.add_vertex ~kind:G.Ingress ~label:"in" ~service:(svc (25. *. U.gbps)) g in
  let g, fast = G.add_vertex ~kind:G.Ip ~label:"fast" ~service:(svc (20. *. U.gbps)) g in
  let g, slow = G.add_vertex ~kind:G.Ip ~label:"slow" ~service:(svc (1. *. U.gbps)) g in
  let g, e = G.add_vertex ~kind:G.Egress ~label:"out" ~service:(svc (25. *. U.gbps)) g in
  let g = G.add_edge ~delta:0.9 ~src:i ~dst:fast g in
  let g = G.add_edge ~delta:0.1 ~src:i ~dst:slow g in
  let g = G.add_edge ~delta:0.9 ~src:fast ~dst:e g in
  let g = G.add_edge ~delta:0.1 ~src:slow ~dst:e g in
  let traffic = T.make ~rate:(2. *. U.gbps) ~packet_size:1500. in
  let r = Lognic.Tail.evaluate g ~hw ~traffic in
  let paths = Lognic.Tail.per_path r in
  Alcotest.(check int) "two paths" 2 (List.length paths);
  let slow_path =
    List.find (fun (p : Lognic.Tail.path_tail) -> List.mem slow p.tpath) paths
  in
  let fast_path =
    List.find (fun (p : Lognic.Tail.path_tail) -> List.mem fast p.tpath) paths
  in
  Alcotest.(check bool)
    "slow path slower" true
    (slow_path.tq.p50 > fast_path.tq.p50);
  (* the 10%-weighted slow path dominates the overall p99 but not p50 *)
  let overall = Lognic.Tail.overall r in
  Alcotest.(check bool)
    "overall p50 tracks the fast path" true
    (overall.p50 < 2. *. fast_path.tq.p50);
  Alcotest.(check bool)
    "overall p99 pulled by the slow path" true
    (overall.p99 > fast_path.tq.p99)

(* Bursty arrivals *)

let bursty_preserves_mean_rate () =
  let g = chain ~rate:(20. *. U.gbps) () in
  let traffic = T.make ~rate:(2. *. U.gbps) ~packet_size:1500. in
  let m =
    S.Netsim.execute (S.Netsim.Run.single
      ~config:
        S.Netsim.Config.(
          default |> with_horizon 1.0
          |> with_arrival (S.Traffic_gen.Bursty { burstiness = 3.; mean_on = 5e-4 }))
      g ~hw ~traffic)
  in
  (* the IP has 10x headroom, so nothing drops and goodput = offered *)
  check_within ~pct:6. "long-run rate preserved" (2. *. U.gbps)
    m.summary.S.Telemetry.throughput;
  Alcotest.(check bool) "no loss with headroom" true (m.summary.S.Telemetry.loss_rate < 0.01)

let bursty_fattens_tails () =
  let g = chain () in
  let traffic = T.make ~rate:(2.4 *. U.gbps) ~packet_size:1500. in
  let run arrival =
    (S.Netsim.execute (S.Netsim.Run.single
       ~config:S.Netsim.Config.(default |> with_horizon ~warmup:0.05 0.4 |> with_arrival arrival)
       g ~hw ~traffic))
      .summary
  in
  let poisson = run S.Traffic_gen.Poisson in
  let paced = run S.Traffic_gen.Paced in
  let bursty = run (S.Traffic_gen.Bursty { burstiness = 3.; mean_on = 5e-4 }) in
  Alcotest.(check bool)
    "paced < poisson < bursty in p99" true
    (paced.S.Telemetry.p99_latency < poisson.S.Telemetry.p99_latency
    && poisson.S.Telemetry.p99_latency < bursty.S.Telemetry.p99_latency)

let bursty_validation () =
  let g = chain () in
  let traffic = T.make ~rate:1e9 ~packet_size:1500. in
  check_raises_invalid "burstiness <= 1" (fun () ->
      S.Netsim.execute (S.Netsim.Run.single
        ~config:
          S.Netsim.Config.(
            default
            |> with_arrival (S.Traffic_gen.Bursty { burstiness = 1.; mean_on = 1e-3 }))
        g ~hw ~traffic))

(* Multi-queue WRR Ip_node *)

let wrr_weights_respected () =
  let e = S.Engine.create () in
  let node =
    S.Ip_node.create_multiqueue e
      ~rng:(N.Rng.create ~seed:3)
      ~label:"n" ~engines:1 ~rate_per_engine:1. ~entries_per_queue:100
      ~weights:[| 3; 1 |] ~service_dist:S.Ip_node.Deterministic
  in
  (* preload both queues, then count service order over one WRR cycle *)
  let order = ref [] in
  for _ = 1 to 8 do
    ignore (S.Ip_node.submit ~queue:0 node ~work:1. (fun () -> order := 0 :: !order));
    ignore (S.Ip_node.submit ~queue:1 node ~work:1. (fun () -> order := 1 :: !order))
  done;
  S.Engine.run e;
  let first_cycle =
    List.filteri (fun i _ -> i < 4) (List.rev !order)
  in
  (* the first dispatch happens on submit (queue 0), then the pattern
     0,0,0,1 repeats: 3-to-1 share overall *)
  Alcotest.(check int) "16 served" 16 (List.length !order);
  let zeros = List.length (List.filter (fun q -> q = 0) first_cycle) in
  Alcotest.(check int) "3 of first 4 from the heavy queue" 3 zeros

let wrr_skips_empty_queues () =
  let e = S.Engine.create () in
  let node =
    S.Ip_node.create_multiqueue e
      ~rng:(N.Rng.create ~seed:3)
      ~label:"n" ~engines:1 ~rate_per_engine:1. ~entries_per_queue:10
      ~weights:[| 9; 1 |] ~service_dist:S.Ip_node.Deterministic
  in
  (* only the light queue has work: it must still be served immediately *)
  let served = ref 0 in
  for _ = 1 to 5 do
    ignore (S.Ip_node.submit ~queue:1 node ~work:1. (fun () -> incr served))
  done;
  S.Engine.run e;
  Alcotest.(check int) "work conserving" 5 !served

let wrr_per_queue_capacity () =
  let e = S.Engine.create () in
  let node =
    S.Ip_node.create_multiqueue e
      ~rng:(N.Rng.create ~seed:3)
      ~label:"n" ~engines:1 ~rate_per_engine:1e-9 ~entries_per_queue:2
      ~weights:[| 1; 1 |] ~service_dist:S.Ip_node.Deterministic
  in
  (* engine grabs the first; then 2 fit per queue *)
  for _ = 1 to 4 do
    ignore (S.Ip_node.submit ~queue:0 node ~work:1. ignore)
  done;
  Alcotest.(check int) "queue 0 drops" 1 (S.Ip_node.drops_of_queue node 0);
  Alcotest.(check bool)
    "queue 1 unaffected" true
    (S.Ip_node.submit ~queue:1 node ~work:1. ignore);
  Alcotest.(check int) "queue 1 no drops" 0 (S.Ip_node.drops_of_queue node 1);
  Alcotest.(check int) "lengths" 2 (S.Ip_node.queue_length node 0);
  check_raises_invalid "bad queue index" (fun () ->
      ignore (S.Ip_node.submit ~queue:7 node ~work:1. ignore))

let wrr_validation () =
  let e = S.Engine.create () in
  check_raises_invalid "no queues" (fun () ->
      S.Ip_node.create_multiqueue e
        ~rng:(N.Rng.create ~seed:1)
        ~label:"n" ~engines:1 ~rate_per_engine:1. ~entries_per_queue:4
        ~weights:[||] ~service_dist:S.Ip_node.Deterministic);
  check_raises_invalid "zero weight" (fun () ->
      S.Ip_node.create_multiqueue e
        ~rng:(N.Rng.create ~seed:1)
        ~label:"n" ~engines:1 ~rate_per_engine:1. ~entries_per_queue:4
        ~weights:[| 1; 0 |] ~service_dist:S.Ip_node.Deterministic)

(* Head-of-line blocking study *)

let hol_wrr_isolates_mice () =
  let c = Lognic_apps.Hol_study.default in
  let shared = Lognic_apps.Hol_study.run_shared_fifo ~duration:1.0 c in
  let wrr = Lognic_apps.Hol_study.run_wrr ~duration:1.0 c in
  Alcotest.(check bool)
    "mice mean improves by > 2x" true
    (wrr.mice_mean < 0.5 *. shared.mice_mean);
  Alcotest.(check bool)
    "mice p99 improves" true
    (wrr.mice_p99 < shared.mice_p99);
  (* elephants pay, but bounded *)
  Alcotest.(check bool)
    "elephants within 2x" true
    (wrr.elephant_mean < 2. *. shared.elephant_mean)

let hol_model_is_class_blind () =
  (* the virtual-shared-queue estimate cannot separate the classes: it
     sits below the elephants and far from the FIFO mice *)
  let c = Lognic_apps.Hol_study.default in
  let model = Lognic_apps.Hol_study.model_mean_latency c in
  let shared = Lognic_apps.Hol_study.run_shared_fifo ~duration:1.0 c in
  Alcotest.(check bool)
    "class-blind mean below elephant mean" true
    (model < shared.elephant_mean);
  Alcotest.(check bool)
    "hides the mice penalty" true
    (shared.mice_mean > 2. *. model)

(* New optimizer knobs *)

let optimizer_accel_knob () =
  let g = chain ~rate:(2. *. U.gbps) () in
  let traffic = T.make ~rate:(5. *. U.gbps) ~packet_size:1500. in
  let s =
    Lognic.Optimizer.optimize g ~hw ~traffic
      ~knobs:[ Lognic.Optimizer.Accel (1, [| 1.; 2.; 1.5 |]) ]
      Lognic.Optimizer.Maximize_throughput
  in
  (match s.assignment with
  | [ Lognic.Optimizer.Set_accel (1, a) ] -> check_close "A = 2 wins" 2. a
  | _ -> Alcotest.fail "expected accel assignment");
  check_close "accel scales capacity" (4. *. U.gbps)
    s.report.throughput.Lognic.Throughput.attained

let optimizer_ingress_rate_admission () =
  (* admission control: the highest BW_in meeting a latency bound *)
  let g = chain ~queue:64 () in
  let bound = 20. *. U.usec in
  let s =
    Lognic.Optimizer.optimize g ~hw
      ~traffic:(T.make ~rate:(1. *. U.gbps) ~packet_size:1500.)
      ~knobs:[ Lognic.Optimizer.Ingress_rate (0.1 *. U.gbps, 4. *. U.gbps) ]
      (Lognic.Optimizer.Maximize_throughput_max_latency bound)
  in
  Alcotest.(check bool) "feasible" true s.feasible;
  let latency = s.report.latency.Lognic.Latency.mean in
  Alcotest.(check bool) "meets the bound" true (latency <= bound *. 1.0001);
  (* and it should be pushing near the bound, not sandbagging *)
  Alcotest.(check bool) "not sandbagging" true (latency > 0.6 *. bound)

let properties =
  [
    prop "gamma quantile is monotone in p"
      QCheck.(triple (float_range 0.3 20.) (float_range 0.1 10.)
                (pair (float_range 0.02 0.98) (float_range 0.02 0.98)))
      (fun (shape, scale, (p1, p2)) ->
        let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
        N.Gamma.quantile ~shape ~scale lo <= N.Gamma.quantile ~shape ~scale hi +. 1e-9);
    prop "tail p99 >= mean for any load"
      QCheck.(float_range 0.1 1.3)
      (fun load ->
        let g = chain () in
        let traffic = T.make ~rate:(load *. 4. *. U.gbps) ~packet_size:1500. in
        let q = Lognic.Tail.overall (Lognic.Tail.evaluate g ~hw ~traffic) in
        q.p99 >= q.q_mean -. 1e-12);
  ]

let suite =
  [
    quick "gamma: log gamma" gamma_log_gamma;
    quick "gamma: exponential CDF" gamma_cdf_exponential_case;
    quick "gamma: erlang CDF" gamma_cdf_erlang_case;
    quick "gamma: quantile roundtrip" gamma_quantile_inverts_cdf;
    quick "gamma: moment matching" gamma_of_moments;
    quick "tail: mean agrees with latency model" tail_mean_agrees_with_latency;
    quick "tail: quantile ordering" tail_quantiles_ordered;
    slow "tail: matches simulator percentiles" tail_matches_simulator;
    quick "tail: quantile function" tail_quantile_function;
    quick "tail: multi-server tails lighter" tail_mmcn_below_mm1n;
    quick "tail: multi-path mixture" tail_multipath_mixture;
    slow "bursty: mean rate preserved" bursty_preserves_mean_rate;
    slow "bursty: fatter tails" bursty_fattens_tails;
    quick "bursty: validation" bursty_validation;
    quick "wrr: weights respected" wrr_weights_respected;
    quick "wrr: work conserving" wrr_skips_empty_queues;
    quick "wrr: per-queue capacity" wrr_per_queue_capacity;
    quick "wrr: validation" wrr_validation;
    slow "hol: WRR isolates mice" hol_wrr_isolates_mice;
    slow "hol: model is class-blind" hol_model_is_class_blind;
    quick "optimizer: accel knob" optimizer_accel_knob;
    quick "optimizer: ingress-rate admission" optimizer_ingress_rate_admission;
  ]
  @ properties
