(* Tests for the domain-pool parallel layer: order preservation,
   exception propagation, and the headline guarantee that parallel
   replicated simulation is bit-identical to the sequential driver. *)

open Helpers
module S = Lognic_sim
module G = Lognic.Graph
module U = Lognic.Units
module T = Lognic.Traffic
module P = Lognic_numerics.Parallel

let map_matches_list_map () =
  let xs = List.init 100 (fun i -> i - 50) in
  let f x = (x * x) - (3 * x) in
  Alcotest.(check (list int)) "order and values" (List.map f xs) (P.map ~jobs:4 f xs);
  Alcotest.(check (list int)) "jobs:1 sequential path" (List.map f xs) (P.map ~jobs:1 f xs);
  Alcotest.(check (list int)) "empty" [] (P.map ~jobs:4 f []);
  Alcotest.(check (list int)) "singleton" [ f 7 ] (P.map ~jobs:4 f [ 7 ])

let map_propagates_first_exception () =
  (* Several elements throw; the smallest input index must win at every
     job count (the guarantee callers rely on for determinism). *)
  let f x = if x mod 2 = 1 then failwith (Printf.sprintf "boom %d" x) else x in
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "first failure wins at jobs:%d" jobs)
        (Failure "boom 1")
        (fun () -> ignore (P.map ~jobs f (List.init 10 Fun.id))))
    [ 1; 4 ]

let sweep_tags_points () =
  let pts = [ 2.; 3.; 5. ] in
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "pairs in grid order"
    (List.map (fun x -> (x, x *. x)) pts)
    (P.sweep ~jobs:4 ~f:(fun x -> x *. x) pts)

let default_jobs_roundtrip () =
  let saved = P.default_jobs () in
  Fun.protect
    ~finally:(fun () -> P.set_default_jobs saved)
    (fun () ->
      P.set_default_jobs 3;
      Alcotest.(check int) "set" 3 (P.default_jobs ());
      P.set_default_jobs 0;
      Alcotest.(check int) "clamped to >= 1" 1 (P.default_jobs ()))

let nested_map_completes () =
  (* A map whose elements themselves map must not deadlock even when
     the outer batch occupies every pool worker. *)
  let inner x = P.map ~jobs:4 (fun y -> x + y) [ 1; 2; 3 ] in
  Alcotest.(check (list (list int)))
    "nested results"
    (List.map (fun x -> [ x + 1; x + 2; x + 3 ]) [ 10; 20; 30; 40 ])
    (P.map ~jobs:4 inner [ 10; 20; 30; 40 ])

(* The tentpole guarantee: the parallel replicated driver is a drop-in
   for Netsim.execute_replicated (Netsim.Run.make — same seeds), same fold, bit-identical
   floats, at any job count. *)

let pipeline () =
  let svc t = G.service ~throughput:t () in
  let g = G.empty in
  let g, i = G.add_vertex ~kind:G.Ingress ~label:"in" ~service:(svc (25. *. U.gbps)) g in
  let g, w =
    G.add_vertex ~kind:G.Ip ~label:"ip"
      ~service:(G.service ~throughput:(4. *. U.gbps) ~queue_capacity:32 ())
      g
  in
  let g, e = G.add_vertex ~kind:G.Egress ~label:"out" ~service:(svc (25. *. U.gbps)) g in
  let g = G.add_edge ~delta:1. ~alpha:1. ~src:i ~dst:w g in
  let g = G.add_edge ~delta:1. ~alpha:1. ~src:w ~dst:e g in
  g

let hw = Lognic.Params.hardware ~bw_interface:(50. *. U.gbps) ~bw_memory:(60. *. U.gbps)

let replicated_bit_identical () =
  let g = pipeline () in
  let mix = [ (T.make ~rate:(2. *. U.gbps) ~packet_size:1500., 1.) ] in
  let config = S.Netsim.Config.(default |> with_horizon 0.02) in
  let sequential = S.Netsim.execute_replicated ~runs:4 (S.Netsim.Run.make ~config g ~hw ~mix) in
  List.iter
    (fun jobs ->
      let parallel = S.Parallel.execute_replicated ~jobs ~runs:4 (S.Netsim.Run.make ~config g ~hw ~mix) in
      Alcotest.(check bool)
        (Printf.sprintf "bit-identical at jobs:%d" jobs)
        true
        (sequential = parallel))
    [ 1; 2; 4 ];
  check_raises_invalid "needs >= 2 runs" (fun () ->
      ignore (S.Parallel.execute_replicated ~jobs:4 ~runs:1 (S.Netsim.Run.make g ~hw ~mix)))

let suite =
  [
    quick "map: matches List.map" map_matches_list_map;
    quick "map: first exception wins" map_propagates_first_exception;
    quick "sweep: tagged grid order" sweep_tags_points;
    quick "default jobs: set and clamp" default_jobs_roundtrip;
    quick "map: nested calls don't deadlock" nested_map_completes;
    quick "run_replicated: bit-identical to sequential" replicated_bit_identical;
  ]
