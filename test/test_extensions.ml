(* Tests for the §3.7 model extensions and the optimizer/calibration. *)

open Helpers
module G = Lognic.Graph
module U = Lognic.Units
module T = Lognic.Traffic
module E = Lognic.Extensions
module O = Lognic.Optimizer

let svc ?parallelism ?queue_capacity ?overhead throughput =
  G.service ?parallelism ?queue_capacity ?overhead ~throughput ()

let hw = Lognic.Params.hardware ~bw_interface:(10. *. U.gbps) ~bw_memory:(20. *. U.gbps)

let chain ?(alpha = 1.) ip_rate =
  let g = G.empty in
  let g, i = G.add_vertex ~kind:G.Ingress ~label:"in" ~service:(svc (40. *. U.gbps)) g in
  let g, w = G.add_vertex ~kind:G.Ip ~label:"ip" ~service:(svc ip_rate) g in
  let g, e = G.add_vertex ~kind:G.Egress ~label:"out" ~service:(svc (40. *. U.gbps)) g in
  let g = G.add_edge ~delta:1. ~alpha ~src:i ~dst:w g in
  let g = G.add_edge ~delta:1. ~src:w ~dst:e g in
  (g, w)

(* Extension #1: consolidation *)

let consolidate_single_equals_direct () =
  let g, _ = chain (5. *. U.gbps) in
  let traffic = T.make ~rate:(2. *. U.gbps) ~packet_size:1500. in
  let direct = Lognic.Estimate.run g ~hw ~traffic in
  let consolidated =
    E.consolidate ~hw [ { E.name = "solo"; graph = g; traffic } ]
  in
  check_close "one tenant = direct evaluation"
    direct.throughput.Lognic.Throughput.attained consolidated.total_attained;
  check_close "latency unchanged" direct.latency.Lognic.Latency.mean
    consolidated.mean_latency

let consolidate_contention_degrades () =
  (* Two tenants each demanding 6G of a 10G interface: each one's
     effective ceiling drops below its solo value. *)
  let g1, _ = chain (20. *. U.gbps) in
  let g2, _ = chain (20. *. U.gbps) in
  let traffic = T.make ~rate:(6. *. U.gbps) ~packet_size:1500. in
  let solo = E.consolidate ~hw [ { E.name = "a"; graph = g1; traffic } ] in
  let both =
    E.consolidate ~hw
      [
        { E.name = "a"; graph = g1; traffic };
        { E.name = "b"; graph = g2; traffic };
      ]
  in
  Alcotest.(check bool)
    "oversubscription flagged" true
    (both.interface_utilization > 1.);
  let solo_a = (List.hd solo.tenants).throughput.Lognic.Throughput.attained in
  let shared_a = (List.hd both.tenants).throughput.Lognic.Throughput.attained in
  Alcotest.(check bool) "tenant a degraded" true (shared_a < solo_a);
  check_raises_invalid "empty tenant list" (fun () -> E.consolidate ~hw [])

let consolidate_disjoint_resources_compose () =
  (* Tenants that do not touch shared media do not interfere. *)
  let g1, _ = chain ~alpha:0. (3. *. U.gbps) in
  let g2, _ = chain ~alpha:0. (3. *. U.gbps) in
  let traffic = T.make ~rate:(2. *. U.gbps) ~packet_size:1500. in
  let both =
    E.consolidate ~hw
      [
        { E.name = "a"; graph = g1; traffic };
        { E.name = "b"; graph = g2; traffic };
      ]
  in
  check_close "sum of independent tenants" (4. *. U.gbps) both.total_attained

(* Extension #2: mixed traffic *)

let mixed_traffic_weighted_average () =
  (* The legacy independent evaluation: private device copies,
     weight-averaged aggregate. Kept as an explicit ablation. *)
  let g, _ = chain (5. *. U.gbps) in
  let mk rate size = T.make ~rate ~packet_size:size in
  let mix =
    T.mix [ (mk (1. *. U.gbps) 64., 1.); (mk (1. *. U.gbps) 1500., 3.) ]
  in
  let report = E.mixed_traffic_independent ~hw ~graph_for:(fun _ -> g) mix in
  Alcotest.(check int) "two classes" 2 (List.length report.classes);
  (* both classes are under capacity, so throughput is the weighted
     average of the class rates *)
  check_close ~tol:1e-9 "weighted attained" (1. *. U.gbps) report.throughput;
  Alcotest.(check bool) "no contention data" true (report.contention = None);
  (* latency must lie between the two per-class latencies *)
  let latencies =
    List.map (fun (_, _, _, (l : Lognic.Latency.result)) -> l.mean) report.classes
  in
  let lo = List.fold_left Float.min infinity latencies in
  let hi = List.fold_left Float.max 0. latencies in
  Alcotest.(check bool) "latency bracketed" true
    (report.latency >= lo -. 1e-12 && report.latency <= hi +. 1e-12)

let mixed_traffic_size_dependent_graphs () =
  (* Extension #2 allows a different graph per size class. Under the
     legacy independent evaluation the aggregate is the weight-averaged
     per-class attained rate. *)
  let graph_for (cls : T.t) =
    let rate = if cls.packet_size < 500. then 1. *. U.gbps else 8. *. U.gbps in
    fst (chain rate)
  in
  let mix =
    T.mix
      [
        (T.make ~rate:(2. *. U.gbps) ~packet_size:64., 1.);
        (T.make ~rate:(2. *. U.gbps) ~packet_size:1500., 1.);
      ]
  in
  let report = E.mixed_traffic_independent ~hw ~graph_for mix in
  (* small class clipped at 1G, large class carried at 2G: mean 1.5G *)
  check_close ~tol:1e-9 "per-class graphs respected" (1.5 *. U.gbps)
    report.throughput

let mixed_traffic_single_class_limit () =
  (* A one-class mix through the joint evaluation must be bit-for-bit
     the plain single-class model. *)
  let g, _ = chain (5. *. U.gbps) in
  let traffic = T.make ~rate:(4. *. U.gbps) ~packet_size:1500. in
  let direct = Lognic.Estimate.run g ~hw ~traffic in
  let report = E.mixed_traffic ~hw ~graph_for:(fun _ -> g) (T.mix [ (traffic, 1.) ]) in
  let bits = Int64.bits_of_float in
  (match report.classes with
  | [ (_, _, tp, lat) ] ->
    Alcotest.(check int64) "capacity bits"
      (bits direct.throughput.Lognic.Throughput.capacity)
      (bits tp.Lognic.Throughput.capacity);
    Alcotest.(check int64) "attained bits"
      (bits direct.throughput.Lognic.Throughput.attained)
      (bits tp.Lognic.Throughput.attained);
    Alcotest.(check int64) "mean latency bits"
      (bits direct.latency.Lognic.Latency.mean)
      (bits lat.Lognic.Latency.mean);
    Alcotest.(check int64) "carried rate bits"
      (bits direct.latency.Lognic.Latency.carried_rate)
      (bits lat.Lognic.Latency.carried_rate)
  | _ -> Alcotest.fail "expected one class");
  Alcotest.(check int64) "aggregate throughput bits"
    (bits direct.throughput.Lognic.Throughput.attained)
    (bits report.throughput)

let mixed_traffic_joint_shares_capacity () =
  (* Two classes on the same 5G chain: the joint model splits the IP by
     offered-byte share, and the aggregate is the SUM of carried rates.
     Two 4G offers on a 5G vertex must carry 5G total, not the legacy
     4G average. *)
  let g, _ = chain ~alpha:0. (5. *. U.gbps) in
  let mix =
    T.mix
      [
        (T.make ~rate:(4. *. U.gbps) ~packet_size:64., 1.);
        (T.make ~rate:(4. *. U.gbps) ~packet_size:1500., 1.);
      ]
  in
  let report = E.mixed_traffic ~hw ~graph_for:(fun _ -> g) mix in
  check_close ~tol:1e-9 "aggregate = joint capacity" (5. *. U.gbps)
    report.throughput;
  List.iter
    (fun (_, _, (tp : Lognic.Throughput.result), _) ->
      (* equal byte shares: each class gets half of the 5G vertex *)
      check_close ~tol:1e-9 "per-class cap = half" (2.5 *. U.gbps) tp.capacity;
      check_close ~tol:1e-9 "per-class carried" (2.5 *. U.gbps) tp.attained)
    report.classes;
  (* under-committed classes keep their own rate: 1G + 1G on 5G = 2G *)
  let light =
    E.mixed_traffic ~hw
      ~graph_for:(fun _ -> g)
      (T.mix
         [
           (T.make ~rate:(1. *. U.gbps) ~packet_size:64., 1.);
           (T.make ~rate:(1. *. U.gbps) ~packet_size:1500., 1.);
         ])
  in
  check_close ~tol:1e-9 "sum of carried rates" (2. *. U.gbps) light.throughput

let mixed_traffic_joint_latency_exceeds_solo () =
  (* Sharing a queue with a second class must not make the first class
     faster: the joint per-class latency is >= its solo latency. *)
  let g, _ = chain ~alpha:0. (5. *. U.gbps) in
  let a = T.make ~rate:(1. *. U.gbps) ~packet_size:64. in
  let b = T.make ~rate:(1. *. U.gbps) ~packet_size:1500. in
  let solo cls = (Lognic.Estimate.run g ~hw ~traffic:cls).latency.Lognic.Latency.mean in
  let joint = E.mixed_traffic ~hw ~graph_for:(fun _ -> g) (T.mix [ (a, 1.); (b, 1.) ]) in
  List.iter2
    (fun cls (_, _, _, (lat : Lognic.Latency.result)) ->
      Alcotest.(check bool) "joint latency >= solo" true
        (lat.mean >= solo cls -. 1e-15))
    [ a; b ] joint.classes

let mixed_traffic_contention_slowdown () =
  let g, _ = chain ~alpha:0. (5. *. U.gbps) in
  let hw = Lognic.Params.with_resources hw [ ("cache", 8. *. U.gbps) ] in
  let mix =
    T.mix
      [
        (T.make ~rate:(1. *. U.gbps) ~packet_size:64., 1.);
        (T.make ~rate:(1. *. U.gbps) ~packet_size:1500., 1.);
      ]
  in
  let spec =
    E.contention
      ~demands:[ [ ("cache", 1.) ]; [ ("cache", 1.) ] ]
      ~interference:[| [| 0.; 0.5 |]; [| 0.; 0. |] |]
  in
  let plain = E.mixed_traffic ~hw ~graph_for:(fun _ -> g) mix in
  let contended = E.mixed_traffic ~contention:spec ~hw ~graph_for:(fun _ -> g) mix in
  (match contended.contention with
  | Some [ c0; c1 ] ->
    (* class 1 pressures cache at 1G/8G = 0.125; M_01 = 0.5 *)
    check_close ~tol:1e-9 "class 0 slowed" (1. +. (0.5 *. 0.125)) c0.slowdown;
    check_close ~tol:1e-9 "class 1 unaffected" 1. c1.slowdown;
    (* each class's cache ceiling: half the 8G capacity at demand 1 *)
    (match c0.resource_caps with
    | [ ("cache", cap) ] -> check_close ~tol:1e-9 "cache cap" (4. *. U.gbps) cap
    | _ -> Alcotest.fail "expected a cache cap")
  | _ -> Alcotest.fail "expected contention data for two classes");
  (* slowdown shaves class 0's vertex ceiling but not its carried 1G *)
  let cap i r = match List.nth r.E.classes i with _, _, (tp : Lognic.Throughput.result), _ -> tp.capacity in
  Alcotest.(check bool) "class 0 ceiling reduced" true (cap 0 contended < cap 0 plain);
  check_close ~tol:1e-9 "still offered-load bound" (2. *. U.gbps) contended.throughput;
  (* a binding resource produces a Resource_bound bottleneck *)
  let tight =
    E.mixed_traffic
      ~contention:
        (E.contention
           ~demands:[ [ ("cache", 8.) ]; [ ("cache", 8.) ] ]
           ~interference:[| [| 0.; 0. |]; [| 0.; 0. |] |])
      ~hw
      ~graph_for:(fun _ -> g)
      mix
  in
  List.iter
    (fun (_, _, (tp : Lognic.Throughput.result), _) ->
      (* each class: share 0.5 of 8G at 8 demand-bytes/byte = 0.5G cap *)
      check_close ~tol:1e-9 "resource-capped" (0.5 *. U.gbps) tp.capacity;
      Alcotest.(check bool) "resource bottleneck" true
        (tp.bottleneck = Lognic.Throughput.Resource_bound "cache"))
    tight.classes

let contention_validation () =
  check_raises_invalid "empty demands" (fun () ->
      E.contention ~demands:[] ~interference:[||]);
  check_raises_invalid "matrix arity" (fun () ->
      E.contention ~demands:[ [] ] ~interference:[||]);
  check_raises_invalid "nonzero diagonal" (fun () ->
      E.contention ~demands:[ [] ] ~interference:[| [| 1. |] |]);
  check_raises_invalid "negative entry" (fun () ->
      E.contention ~demands:[ []; [] ]
        ~interference:[| [| 0.; -1. |]; [| 0.; 0. |] |]);
  check_raises_invalid "negative demand" (fun () ->
      E.contention ~demands:[ [ ("cache", -1.) ] ] ~interference:[| [| 0. |] |]);
  let g, _ = chain ~alpha:0. (5. *. U.gbps) in
  let mix = T.mix [ (T.make ~rate:1e9 ~packet_size:1500., 1.) ] in
  check_raises_invalid "unknown resource" (fun () ->
      E.mixed_traffic
        ~contention:(E.contention ~demands:[ [ ("cache", 1.) ] ] ~interference:[| [| 0. |] |])
        ~hw
        ~graph_for:(fun _ -> g)
        mix);
  check_raises_invalid "demand arity mismatch" (fun () ->
      E.mixed_traffic
        ~contention:(E.contention ~demands:[ [] ] ~interference:[| [| 0. |] |])
        ~hw
        ~graph_for:(fun _ -> g)
        (T.mix
           [
             (T.make ~rate:1e9 ~packet_size:64., 1.);
             (T.make ~rate:1e9 ~packet_size:1500., 1.);
           ]))

(* Extension #3: rate limiter *)

let rate_limiter_insertion () =
  let g, w = chain ~alpha:0.5 (5. *. U.gbps) in
  let g', limiter =
    E.insert_rate_limiter g ~before:w ~rate:(1. *. U.gbps) ~queue_capacity:4
  in
  Alcotest.(check int) "one more vertex" 4 (G.vertex_count g');
  Alcotest.(check bool) "still valid" true (Result.is_ok (G.validate g'));
  (* incoming edge re-pointed, medium usage preserved *)
  (match G.edge g' ~src:0 ~dst:limiter with
  | Some e -> check_close "alpha preserved" 0.5 e.alpha
  | None -> Alcotest.fail "edge not re-pointed");
  Alcotest.(check bool) "old edge gone" true (G.edge g' ~src:0 ~dst:w = None);
  (* the limiter caps throughput *)
  let traffic = T.make ~rate:(5. *. U.gbps) ~packet_size:1500. in
  let r = Lognic.Throughput.evaluate g' ~hw ~traffic in
  check_close "limited capacity" (1. *. U.gbps) r.capacity

let rate_limiter_end_to_end_in_sim () =
  (* Extension #3 made concrete: the rewritten graph also caps goodput
     in the packet simulator, not just in Eq 4. *)
  let g, w = chain ~alpha:0. (5. *. U.gbps) in
  let g', _ =
    E.insert_rate_limiter g ~before:w ~rate:(1. *. U.gbps) ~queue_capacity:16
  in
  let traffic = T.make ~rate:(3. *. U.gbps) ~packet_size:1500. in
  let m =
    Lognic_sim.Netsim.execute (Lognic_sim.Netsim.Run.single
      ~config:
        Lognic_sim.Netsim.Config.(default |> with_horizon ~warmup:0.02 0.1)
      g' ~hw ~traffic)
  in
  check_within ~pct:6. "sim goodput at the limiter's rate" (1. *. U.gbps)
    m.summary.Lognic_sim.Telemetry.throughput

let rate_limiter_validation () =
  let g, _ = chain (5. *. U.gbps) in
  check_raises_invalid "must target an IP" (fun () ->
      E.insert_rate_limiter g ~before:0 ~rate:1e9 ~queue_capacity:4)

(* Optimizer *)

let optimizer_picks_best_throughput_candidate () =
  let g, w = chain ~alpha:0. (1. *. U.gbps) in
  let traffic = T.make ~rate:(10. *. U.gbps) ~packet_size:1500. in
  let candidates = [| 1. *. U.gbps; 3. *. U.gbps; 2. *. U.gbps |] in
  let s =
    O.optimize g ~hw ~traffic
      ~knobs:[ O.Vertex_throughput (w, candidates) ]
      O.Maximize_throughput
  in
  (match s.assignment with
  | [ O.Set_throughput (id, p) ] ->
    Alcotest.(check int) "right vertex" w id;
    check_close "best candidate" (3. *. U.gbps) p
  | _ -> Alcotest.fail "unexpected assignment");
  check_close "report reflects assignment" (3. *. U.gbps)
    s.report.throughput.Lognic.Throughput.attained

let optimizer_balances_split () =
  (* 2G and 6G IPs in parallel: the throughput-optimal split is 25/75. *)
  let g = G.empty in
  let g, i = G.add_vertex ~kind:G.Ingress ~label:"in" ~service:(svc (40. *. U.gbps)) g in
  let g, x = G.add_vertex ~kind:G.Ip ~label:"x" ~service:(svc (2. *. U.gbps)) g in
  let g, y = G.add_vertex ~kind:G.Ip ~label:"y" ~service:(svc (6. *. U.gbps)) g in
  let g, e = G.add_vertex ~kind:G.Egress ~label:"out" ~service:(svc (40. *. U.gbps)) g in
  let g = G.add_edge ~delta:0.5 ~src:i ~dst:x g in
  let g = G.add_edge ~delta:0.5 ~src:i ~dst:y g in
  let g = G.add_edge ~delta:0.5 ~src:x ~dst:e g in
  let g = G.add_edge ~delta:0.5 ~src:y ~dst:e g in
  let traffic = T.make ~rate:(10. *. U.gbps) ~packet_size:1500. in
  let s =
    O.optimize g ~hw ~traffic ~knobs:[ O.Out_split i ] O.Maximize_throughput
  in
  check_within ~pct:3. "near-full capacity" (8. *. U.gbps)
    s.report.throughput.Lognic.Throughput.attained;
  (match s.assignment with
  | [ O.Set_split (_, fractions) ] ->
    let total = List.fold_left ( +. ) 0. fractions in
    let to_x = List.nth fractions 0 /. total in
    check_within ~pct:10. "2G IP gets ~25%" 0.25 to_x
  | _ -> Alcotest.fail "expected a split assignment")

let optimizer_queue_capacity_latency () =
  (* Minimizing latency subject to a throughput floor should pick a
     small-but-sufficient queue. *)
  let g, w = chain ~alpha:0. (2. *. U.gbps) in
  let traffic = T.make ~rate:(1.8 *. U.gbps) ~packet_size:1500. in
  let s =
    O.optimize g ~hw ~traffic
      ~knobs:[ O.Queue_capacity (w, 1, 64) ]
      (O.Minimize_latency_min_throughput (1.7 *. U.gbps))
  in
  Alcotest.(check bool) "feasible" true s.feasible;
  (match s.assignment with
  | [ O.Set_queue_capacity (_, n) ] ->
    Alcotest.(check bool) "small queue chosen" true (n < 64);
    Alcotest.(check bool) "not degenerate" true (n >= 2)
  | _ -> Alcotest.fail "expected queue assignment");
  Alcotest.(check bool)
    "carried above bound floor" true
    (s.report.throughput.Lognic.Throughput.attained >= 1.7 *. U.gbps)

let optimizer_infeasible_flagged () =
  let g, w = chain ~alpha:0. (1. *. U.gbps) in
  let traffic = T.make ~rate:(0.9 *. U.gbps) ~packet_size:1500. in
  let s =
    O.optimize g ~hw ~traffic
      ~knobs:[ O.Queue_capacity (w, 1, 8) ]
      (O.Minimize_latency_min_throughput (5. *. U.gbps))
  in
  Alcotest.(check bool) "cannot meet 5G on a 1G IP" false s.feasible

let optimizer_validation () =
  let g, w = chain (1. *. U.gbps) in
  let traffic = T.make ~rate:1e9 ~packet_size:1500. in
  check_raises_invalid "no knobs" (fun () ->
      O.optimize g ~hw ~traffic ~knobs:[] O.Maximize_throughput);
  check_raises_invalid "empty candidates" (fun () ->
      O.optimize g ~hw ~traffic
        ~knobs:[ O.Vertex_throughput (w, [||]) ]
        O.Maximize_throughput);
  check_raises_invalid "split on single out-edge" (fun () ->
      O.optimize g ~hw ~traffic ~knobs:[ O.Out_split w ] O.Maximize_throughput)

let optimizer_matches_exhaustive () =
  (* The optimizer's discrete search agrees with brute force. *)
  let g, w = chain ~alpha:0. (1. *. U.gbps) in
  let traffic = T.make ~rate:(2.1 *. U.gbps) ~packet_size:1500. in
  let candidates = [| 0.7e9 /. 8. *. 8.; 1.9e9; 2.2e9; 0.4e9 |] in
  let brute =
    Array.fold_left
      (fun acc p ->
        let g' = O.apply_assignment g [ O.Set_throughput (w, p) ] in
        Float.max acc (Lognic.Throughput.evaluate g' ~hw ~traffic).attained)
      0. candidates
  in
  let s =
    O.optimize g ~hw ~traffic
      ~knobs:[ O.Vertex_throughput (w, candidates) ]
      O.Maximize_throughput
  in
  check_close "agrees with brute force" brute
    s.report.throughput.Lognic.Throughput.attained

let optimizer_mixed_discrete_continuous () =
  (* one discrete knob (queue) combined with one continuous knob
     (split): the product search must find both. *)
  let g = G.empty in
  let g, i = G.add_vertex ~kind:G.Ingress ~label:"in" ~service:(svc (40. *. U.gbps)) g in
  let g, x =
    G.add_vertex ~kind:G.Ip ~label:"x"
      ~service:(svc ~queue_capacity:2 (2. *. U.gbps))
      g
  in
  let g, y =
    G.add_vertex ~kind:G.Ip ~label:"y"
      ~service:(svc ~queue_capacity:2 (6. *. U.gbps))
      g
  in
  let g, e = G.add_vertex ~kind:G.Egress ~label:"out" ~service:(svc (40. *. U.gbps)) g in
  let g = G.add_edge ~delta:0.5 ~src:i ~dst:x g in
  let g = G.add_edge ~delta:0.5 ~src:i ~dst:y g in
  let g = G.add_edge ~delta:0.5 ~src:x ~dst:e g in
  let g = G.add_edge ~delta:0.5 ~src:y ~dst:e g in
  let traffic = T.make ~rate:(7.6 *. U.gbps) ~packet_size:1500. in
  let s =
    O.optimize g ~hw ~traffic
      ~knobs:[ O.Out_split i; O.Queue_capacity (y, 2, 32) ]
      O.Maximize_throughput
  in
  (* the split must favor y and y's queue must deepen; x's queue stays
     pinned at 2 entries, so its share keeps some blocking loss and the
     optimum sits below the raw 8G capacity *)
  let carried =
    Float.min s.report.throughput.Lognic.Throughput.attained
      s.report.latency.Lognic.Latency.carried_rate
  in
  let baseline =
    let r = Lognic.Estimate.run g ~hw ~traffic in
    Float.min r.throughput.Lognic.Throughput.attained
      r.latency.Lognic.Latency.carried_rate
  in
  Alcotest.(check bool) "beats the 50/50 default" true (carried > baseline);
  Alcotest.(check bool) "carries > 6.6G" true (carried > 6.6 *. U.gbps);
  (match
     List.find_opt (function O.Set_queue_capacity _ -> true | _ -> false) s.assignment
   with
  | Some (O.Set_queue_capacity (_, n)) ->
    Alcotest.(check bool) "queue deepened" true (n > 4)
  | _ -> Alcotest.fail "queue knob not assigned")

let estimate_run_mix () =
  let g, _ = chain ~alpha:0. (5. *. U.gbps) in
  let mix =
    T.mix
      [
        (T.make ~rate:(1. *. U.gbps) ~packet_size:64., 1.);
        (T.make ~rate:(1. *. U.gbps) ~packet_size:1500., 1.);
      ]
  in
  let report = Lognic.Estimate.run_mix g ~hw ~mix in
  (* joint evaluation: the aggregate is the sum of carried class rates *)
  check_close ~tol:1e-9 "both classes carried" (2. *. U.gbps)
    report.Lognic.Extensions.throughput;
  Alcotest.(check int) "classes evaluated" 2
    (List.length report.Lognic.Extensions.classes)

let optimizer_pareto_frontier () =
  (* queue capacity trades latency (shallow) against carried throughput
     (deep) near saturation: the frontier must be monotone. *)
  let g, w = chain ~alpha:0. (2. *. U.gbps) in
  let traffic = T.make ~rate:(1.96 *. U.gbps) ~packet_size:1500. in
  let frontier =
    O.pareto ~points:6 g ~hw ~traffic ~knobs:[ O.Queue_capacity (w, 1, 64) ]
  in
  Alcotest.(check bool) "non-empty" true (List.length frontier >= 3);
  let rec check_monotone = function
    | (b1, (s1 : O.solution)) :: ((b2, s2) :: _ as rest) ->
      Alcotest.(check bool) "bounds increase" true (b1 <= b2);
      let carried (s : O.solution) =
        Float.min s.report.throughput.Lognic.Throughput.attained
          s.report.latency.Lognic.Latency.carried_rate
      in
      Alcotest.(check bool)
        "throughput non-decreasing along the frontier" true
        (carried s2 >= carried s1 -. 1e-3);
      Alcotest.(check bool)
        "solutions respect their bounds" true
        (s1.report.latency.Lognic.Latency.mean <= b1 *. 1.0001);
      check_monotone rest
    | [ (b, s) ] ->
      Alcotest.(check bool)
        "last respects bound" true
        (s.report.latency.Lognic.Latency.mean <= b *. 1.0001)
    | [] -> ()
  in
  check_monotone frontier

(* Calibration *)

let calibrate_saturation_and_knee () =
  let sweep = [| (1., 1.); (2., 2.); (3., 2.9); (4., 3.); (5., 3.01); (6., 3.) |] in
  check_close "saturation" 3.01 (Lognic.Calibrate.saturation_throughput sweep);
  check_close "knee" 4. (Lognic.Calibrate.knee_point sweep);
  check_raises_invalid "empty sweep" (fun () ->
      Lognic.Calibrate.saturation_throughput [||])

let calibrate_opaque_ip_roundtrip () =
  (* Generate data from a known curve, recover the parameters. *)
  let truth = { Lognic.Calibrate.service_time = 90e-6; capacity = 3e9; r_squared = 1. } in
  let data =
    Array.init 10 (fun i ->
        let rate = 2.8e9 *. float_of_int (i + 1) /. 10. in
        (rate, Lognic.Calibrate.opaque_ip_latency truth ~rate))
  in
  let fit = Lognic.Calibrate.fit_opaque_ip ~data in
  check_within ~pct:3. "t0" truth.service_time fit.service_time;
  check_within ~pct:3. "capacity" truth.capacity fit.capacity;
  Alcotest.(check bool) "r^2" true (fit.r_squared > 0.99);
  (* the fitted service can seed a graph vertex *)
  let service = Lognic.Calibrate.opaque_ip_service fit in
  check_within ~pct:3. "service throughput" 3e9 service.G.throughput

let calibrate_overhead_intercept () =
  let data =
    Array.init 8 (fun i ->
        let size = 512. *. float_of_int (i + 1) in
        (size, 2e-6 +. (size /. 1e9)))
  in
  let per_byte, fixed = Lognic.Calibrate.overhead_from_intercept ~data in
  check_within ~pct:1. "slope = 1/bandwidth" 1e-9 per_byte;
  check_within ~pct:1. "intercept = O" 2e-6 fixed

let optimizer_memoizes_duplicate_candidates () =
  (* Duplicate candidate values canonicalize to the same memo key, so
     the second enumeration of each must be served from the LRU. *)
  let g, w = chain ~alpha:0. (1. *. U.gbps) in
  let traffic = T.make ~rate:(2.1 *. U.gbps) ~packet_size:1500. in
  let s =
    O.optimize g ~hw ~traffic
      ~knobs:[ O.Vertex_throughput (w, [| 1e9; 2e9; 1e9; 2e9 |]) ]
      O.Maximize_throughput
  in
  Alcotest.(check bool) "evaluations counted" true (s.stats.O.evaluations >= 4);
  Alcotest.(check bool)
    "duplicate grid points hit the memo" true
    (s.stats.O.memo_hits >= 2);
  Alcotest.(check bool)
    "hits don't exceed evaluations" true
    (s.stats.O.memo_hits < s.stats.O.evaluations);
  let plain =
    O.optimize g ~hw ~traffic
      ~knobs:[ O.Vertex_throughput (w, [| 1e9; 2e9 |]) ]
      O.Maximize_throughput
  in
  check_close "result unaffected by memoization"
    plain.report.throughput.Lognic.Throughput.attained
    s.report.throughput.Lognic.Throughput.attained

let optimizer_jobs_invariant () =
  (* The whole point of ?jobs: the solution must be identical at any
     parallelism, including the continuous multi-start's rng stream. *)
  let g = G.empty in
  let g, i = G.add_vertex ~kind:G.Ingress ~label:"in" ~service:(svc (40. *. U.gbps)) g in
  let g, x = G.add_vertex ~kind:G.Ip ~label:"x" ~service:(svc ~queue_capacity:16 (2. *. U.gbps)) g in
  let g, y = G.add_vertex ~kind:G.Ip ~label:"y" ~service:(svc (6. *. U.gbps)) g in
  let g, e = G.add_vertex ~kind:G.Egress ~label:"out" ~service:(svc (40. *. U.gbps)) g in
  let g = G.add_edge ~delta:0.5 ~src:i ~dst:x g in
  let g = G.add_edge ~delta:0.5 ~src:i ~dst:y g in
  let g = G.add_edge ~delta:0.5 ~src:x ~dst:e g in
  let g = G.add_edge ~delta:0.5 ~src:y ~dst:e g in
  let traffic = T.make ~rate:(10. *. U.gbps) ~packet_size:1500. in
  let knobs = [ O.Queue_capacity (x, 2, 10); O.Out_split i ] in
  let solve jobs = O.optimize ~jobs g ~hw ~traffic ~knobs O.Maximize_throughput in
  let reference = solve 1 in
  List.iter
    (fun jobs ->
      let s = solve jobs in
      Alcotest.(check bool)
        (Printf.sprintf "identical assignment at jobs:%d" jobs)
        true
        (s.assignment = reference.assignment);
      check_close
        (Printf.sprintf "identical objective at jobs:%d" jobs)
        reference.report.throughput.Lognic.Throughput.attained
        s.report.throughput.Lognic.Throughput.attained)
    [ 2; 4 ]

let properties =
  [
    prop "optimizer never loses to the default graph"
      QCheck.(float_range 0.2 5.)
      (fun ip_gbps ->
        let g, w = chain ~alpha:0. (ip_gbps *. U.gbps) in
        let traffic = T.make ~rate:(4. *. U.gbps) ~packet_size:1500. in
        let base = (Lognic.Throughput.evaluate g ~hw ~traffic).attained in
        let s =
          O.optimize g ~hw ~traffic
            ~knobs:
              [
                O.Vertex_throughput
                  (w, [| ip_gbps *. U.gbps; 2. *. ip_gbps *. U.gbps |]);
              ]
            O.Maximize_throughput
        in
        s.report.throughput.Lognic.Throughput.attained >= base -. 1e-6);
  ]

(* ---- damped fixed point and feedback splits -------------------------- *)

let fixed_point_basics () =
  (* affine contraction x -> x/2 + 1 has the fixed point 2 *)
  let r =
    E.fixed_point ~update:(fun x -> [| (x.(0) /. 2.) +. 1. |]) [| 0. |]
  in
  Alcotest.(check bool) "converged" true r.E.fp_converged;
  check_close ~tol:1e-6 "fixed point" 2. r.E.value.(0);
  (* undamped oscillator x -> 1 - x never settles; damping 0.5 lands it
     on the fixed point 0.5 in one step *)
  let osc = E.fixed_point ~damping:1. ~max_iter:50 ~update:(fun x -> [| 1. -. x.(0) |]) [| 0. |] in
  Alcotest.(check bool) "undamped oscillation flagged" false osc.E.fp_converged;
  let damped = E.fixed_point ~damping:0.5 ~update:(fun x -> [| 1. -. x.(0) |]) [| 0. |] in
  Alcotest.(check bool) "damping tames the oscillator" true damped.E.fp_converged;
  check_close ~tol:1e-6 "oscillator fixed point" 0.5 damped.E.value.(0);
  check_raises_invalid "bad damping" (fun () ->
      ignore (E.fixed_point ~damping:0. ~update:(fun x -> x) [| 0. |]));
  check_raises_invalid "bad tol" (fun () ->
      ignore (E.fixed_point ~tol:0. ~update:(fun x -> x) [| 0. |]));
  check_raises_invalid "dimension change" (fun () ->
      ignore (E.fixed_point ~update:(fun _ -> [||]) [| 0. |]));
  check_raises_invalid "non-finite update" (fun () ->
      ignore (E.fixed_point ~update:(fun _ -> [| nan |]) [| 0. |]))

module FC = Lognic.Flowcache
module App = Lognic_apps.Flow_cache

let fc_spec =
  FC.spec ~flows:4096 ~zipf:1.0 ~emc_entries:256 ~megaflow_entries:1024 ()

let flowcache_che_sanity () =
  let p = FC.zipf_weights ~flows:1000 ~s:1.0 in
  check_close ~tol:1e-9 "zipf weights normalized" 1. (Array.fold_left ( +. ) 0. p);
  Alcotest.(check bool) "zipf descending" true (p.(0) > p.(999));
  let rates = Array.map (fun pi -> 1e6 *. pi) p in
  let agg capacity =
    let h = FC.hit_ratios ~rates ~capacity () in
    let acc = ref 0. in
    Array.iteri (fun i pi -> acc := !acc +. (pi *. h.(i))) p;
    !acc
  in
  let small = agg 50 and big = agg 500 in
  Alcotest.(check bool) "hit ratio rises with capacity" true (big > small);
  Alcotest.(check bool) "hit ratios in (0,1)" true (small > 0. && big < 1.);
  (* the whole population fits: everything hits *)
  check_close ~tol:1e-12 "fits entirely" 1. (agg 2000);
  (* a TTL strictly caps the characteristic time, so it can only lose
     hits relative to pure LRU *)
  let t = FC.che_characteristic_time ~rates ~capacity:500 in
  Alcotest.(check bool) "characteristic time positive" true (t > 0. && Float.is_finite t);
  let h_ttl = FC.hit_ratios ~ttl:(t /. 4.) ~rates ~capacity:500 () in
  let agg_ttl = ref 0. in
  Array.iteri (fun i pi -> agg_ttl := !agg_ttl +. (pi *. h_ttl.(i))) p;
  Alcotest.(check bool) "ttl only loses hits" true (!agg_ttl < big)

let flowcache_converges () =
  let g = App.graph App.default in
  let traffic = App.traffic App.default in
  let r = Lognic.Estimate.run_flowcache fc_spec g ~hw:App.hardware ~traffic in
  Alcotest.(check bool) "converged" true r.FC.converged;
  Alcotest.(check bool) "emc hit ratio in (0,1)" true
    (r.FC.emc_hit_ratio > 0. && r.FC.emc_hit_ratio < 1.);
  Alcotest.(check bool) "megaflow hit ratio in (0,1]" true
    (r.FC.megaflow_hit_ratio > 0. && r.FC.megaflow_hit_ratio <= 1.);
  let shares = List.map (fun c -> c.FC.share) r.FC.classes in
  check_close ~tol:1e-9 "class shares sum to 1" 1. (List.fold_left ( +. ) 0. shares);
  (match r.FC.classes with
  | [ hot; warm; cold ] ->
    Alcotest.(check string) "hot first" "hot" hot.FC.klass;
    Alcotest.(check string) "warm second" "warm" warm.FC.klass;
    Alcotest.(check string) "cold third" "cold" cold.FC.klass;
    check_close ~tol:1e-9 "hot share is the emc hit ratio" r.FC.emc_hit_ratio
      hot.FC.share;
    check_close ~tol:1e-9 "overall = 1 - cold share" r.FC.overall_hit_ratio
      (1. -. cold.FC.share);
    (* the slow path is strictly costlier than the caches *)
    Alcotest.(check bool) "cold mean above hot mean" true
      (cold.FC.class_mean > hot.FC.class_mean);
    Alcotest.(check bool) "p99 at or above mean per class" true
      (List.for_all (fun c -> c.FC.class_p99 >= c.FC.class_mean) r.FC.classes)
  | cs -> Alcotest.failf "expected 3 classes, got %d" (List.length cs));
  (* convergence is init-independent *)
  let r' =
    Lognic.Estimate.run_flowcache ~init:[| 0.05; 0.95 |] fc_spec g
      ~hw:App.hardware ~traffic
  in
  check_close ~tol:1e-6 "init-independent emc hit" r.FC.emc_hit_ratio
    r'.FC.emc_hit_ratio;
  check_close ~tol:1e-6 "init-independent megaflow hit" r.FC.megaflow_hit_ratio
    r'.FC.megaflow_hit_ratio

(* The documented collapse guarantee: the converged report is one plain
   evaluation of the converged graph, bit for bit. *)
let flowcache_collapse_bitforbit () =
  let g = App.graph App.default in
  let traffic = App.traffic App.default in
  let r = Lognic.Estimate.run_flowcache fc_spec g ~hw:App.hardware ~traffic in
  let emc = (Option.get (G.find_vertex g ~label:"emc")).G.id in
  let mega = (Option.get (G.find_vertex g ~label:"megaflow")).G.id in
  let static =
    let g = G.scale_out_split g emc [ r.FC.emc_hit_ratio; 1. -. r.FC.emc_hit_ratio ] in
    G.scale_out_split g mega
      [ r.FC.megaflow_hit_ratio; 1. -. r.FC.megaflow_hit_ratio ]
  in
  let est = Lognic.Estimate.run static ~hw:App.hardware ~traffic in
  let bits = Int64.bits_of_float in
  Alcotest.(check int64) "attained bit-identical"
    (bits est.Lognic.Estimate.throughput.Lognic.Throughput.attained)
    (bits r.FC.throughput.Lognic.Throughput.attained);
  Alcotest.(check int64) "capacity bit-identical"
    (bits est.Lognic.Estimate.throughput.Lognic.Throughput.capacity)
    (bits r.FC.throughput.Lognic.Throughput.capacity);
  Alcotest.(check int64) "mean latency bit-identical"
    (bits est.Lognic.Estimate.latency.Lognic.Latency.mean)
    (bits r.FC.latency.Lognic.Latency.mean);
  Alcotest.(check int64) "carried rate bit-identical"
    (bits est.Lognic.Estimate.latency.Lognic.Latency.carried_rate)
    (bits r.FC.latency.Lognic.Latency.carried_rate)

let flowcache_validation () =
  check_raises_invalid "flows >= 1" (fun () -> ignore (FC.spec ~flows:0 ()));
  check_raises_invalid "zipf finite" (fun () ->
      ignore (FC.spec ~flows:10 ~zipf:nan ()));
  check_raises_invalid "ttl > 0" (fun () ->
      ignore (FC.spec ~flows:10 ~ttl:0. ()));
  let g, _ = chain (5. *. U.gbps) in
  let traffic = T.make ~rate:(2. *. U.gbps) ~packet_size:1500. in
  (* no vertex labelled "emc" in the plain chain *)
  check_raises_invalid "missing cache vertex" (fun () ->
      ignore (Lognic.Estimate.run_flowcache fc_spec g ~hw ~traffic));
  (* an "emc" vertex without two out-edges is rejected too *)
  let g2, _ =
    let g = G.empty in
    let g, i = G.add_vertex ~kind:G.Ingress ~label:"in" ~service:(svc (40. *. U.gbps)) g in
    let g, w = G.add_vertex ~kind:G.Ip ~label:"emc" ~service:(svc (5. *. U.gbps)) g in
    let g, e = G.add_vertex ~kind:G.Egress ~label:"out" ~service:(svc (40. *. U.gbps)) g in
    let g = G.add_edge ~src:i ~dst:w g in
    (G.add_edge ~src:w ~dst:e g, w)
  in
  check_raises_invalid "cache vertex needs 2 out-edges" (fun () ->
      ignore (Lognic.Estimate.run_flowcache fc_spec g2 ~hw ~traffic))

let suite =
  [
    quick "consolidate: single tenant" consolidate_single_equals_direct;
    quick "consolidate: contention" consolidate_contention_degrades;
    quick "consolidate: disjoint tenants" consolidate_disjoint_resources_compose;
    quick "mixed traffic: weighted average" mixed_traffic_weighted_average;
    quick "mixed traffic: per-size graphs" mixed_traffic_size_dependent_graphs;
    quick "mixed traffic: single-class limit" mixed_traffic_single_class_limit;
    quick "mixed traffic: joint capacity split" mixed_traffic_joint_shares_capacity;
    quick "mixed traffic: joint latency >= solo" mixed_traffic_joint_latency_exceeds_solo;
    quick "contention: slowdown and resource caps" mixed_traffic_contention_slowdown;
    quick "contention: validation" contention_validation;
    quick "rate limiter: insertion" rate_limiter_insertion;
    quick "rate limiter: end-to-end in sim" rate_limiter_end_to_end_in_sim;
    quick "rate limiter: validation" rate_limiter_validation;
    quick "optimizer: discrete candidates" optimizer_picks_best_throughput_candidate;
    quick "optimizer: continuous split" optimizer_balances_split;
    quick "optimizer: queue capacity under constraint" optimizer_queue_capacity_latency;
    quick "optimizer: infeasibility flagged" optimizer_infeasible_flagged;
    quick "optimizer: knob validation" optimizer_validation;
    quick "optimizer: matches exhaustive search" optimizer_matches_exhaustive;
    quick "optimizer: mixed discrete+continuous" optimizer_mixed_discrete_continuous;
    quick "optimizer: memoizes duplicate candidates" optimizer_memoizes_duplicate_candidates;
    quick "optimizer: identical at any job count" optimizer_jobs_invariant;
    quick "estimate: run_mix" estimate_run_mix;
    quick "optimizer: pareto frontier" optimizer_pareto_frontier;
    quick "calibrate: saturation and knee" calibrate_saturation_and_knee;
    quick "calibrate: opaque IP round trip" calibrate_opaque_ip_roundtrip;
    quick "calibrate: overhead intercept" calibrate_overhead_intercept;
    quick "fixed point: basics and validation" fixed_point_basics;
    quick "flowcache: che solver sanity" flowcache_che_sanity;
    quick "flowcache: fixed point converges" flowcache_converges;
    quick "flowcache: collapses to the static split" flowcache_collapse_bitforbit;
    quick "flowcache: validation" flowcache_validation;
  ]
  @ properties
