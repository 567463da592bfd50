(* The repo benchmark. One process runs one workload as a closed loop
   with a single client: rounds of ops back to back until --seconds
   have elapsed (always at least one whole round). With --trace 0 it
   prints the end-to-end metrics; with --trace 1 it runs every op both
   untraced and traced, and prints the per-layer ledger plus the
   traced/untraced wall ratio. See perfbench/README.md. *)

module Sim = Lognic_sim

let eprintf = Printf.eprintf

(* ---- workloads ---- *)

type workload = {
  sims : Ops.sim_input list;  (** simulate ops of one round *)
  estimates : string list;  (** estimate ops of one round *)
  searches : Ops.search list;  (** optimize ops of one slot *)
  model_seconds : float;
      (** how long each round keeps repeating its estimates and searches
          after its simulations *)
}

let gbps = Lognic.Units.gbps

let nvmeof_search =
  {
    Ops.s_text = Inputs.nvmeof_target;
    knobs = [ Queue ("ssd_bus", 16, 128) ];
    objective = Minimize_latency;
  }

(* The split alone, without a queue knob: cheap enough that a run
   holds many searches to take the fastest of. *)
let steering_search =
  { Ops.s_text = Inputs.steering; knobs = [ Split "sched" ]; objective = Minimize_latency }

(* Core allocations of 0.75 Gbps each, capped by the 6 Gbps the
   cores vertex can reach: from 8 cores on the candidates repeat, the
   duplicate grid points the optimizer's memo is meant to absorb. *)
let echo_search =
  {
    Ops.s_text = Inputs.echo_md5;
    knobs =
      [
        Queue ("md5", 8, 32);
        Throughputs
          ("cores", Array.init 16 (fun n -> Float.min 6. (0.75 *. float_of_int (n + 1)) *. gbps));
      ];
    objective = Minimize_latency;
  }

let jobs = Domain.recommended_domain_count ()
let repeat n x = List.init n (fun _ -> x)

(* The timed searches run at jobs = 1, so the process stays on one
   domain: once the domain pool has spawned, every minor collection
   waits on a stop-the-world handshake with the idle workers, which
   made estimate_p95_ms bimodal. Searches at jobs = nproc run only
   after the loop. *)
let build name ~seed =
  match name with
  | "sim-nvmeof" ->
    {
      sims = [ { text = Inputs.nvmeof_target; horizon = 1.0; tenants = 1 } ];
      estimates = Inputs.load_sweep ~seed Inputs.nvmeof_target 200;
      searches = repeat 3 nvmeof_search;
      model_seconds = 1.0;
    }
  | "sim-steering-16vf" ->
    {
      sims = [ { text = Inputs.steering; horizon = 0.005; tenants = 16 } ];
      estimates = Inputs.load_sweep ~seed Inputs.steering 200;
      searches = [ steering_search ];
      model_seconds = 0.5;
    }
  | other ->
    eprintf "unknown workload %S (sim-nvmeof, sim-steering-16vf)\n" other;
    exit 2

(* ---- op accounting ---- *)

let attempted = ref 0
let failed = ref 0

(* Runs one op; any exception (a failed output check included) counts
   as a failed op. *)
let attempt label f =
  incr attempted;
  match f () with
  | r -> Some r
  | exception e ->
    incr failed;
    eprintf "FAILED %s: %s\n%!" label (Printexc.to_string e);
    None

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum f xs = List.fold_left (fun a x -> a +. f x) 0. xs
let ratio a b = if b > 0. then a /. b else 0.

(* Nearest-rank percentile. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let peak_rss_mb () =
  let line =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.starts_with ~prefix:"VmHWM:" l -> Some l
          | Some _ -> find ()
        in
        find ())
  in
  match line with
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
  | None -> nan

(* ---- set-up ---- *)

(* Input generation, parsing every input, and the discarded warm-up:
   one op of each kind, the simulation on a 1/16 horizon. *)
let setup name ~seed =
  let w = build name ~seed in
  let texts =
    List.sort_uniq compare
      (List.map (fun (s : Ops.sim_input) -> s.text) w.sims
      @ w.estimates
      @ List.map (fun (s : Ops.search) -> s.s_text) w.searches)
  in
  List.iter (fun t -> ignore (Ops.parse t : Lognic_dsl.Parser.document)) texts;
  let sim = List.hd w.sims in
  ignore (attempt "warm-up simulate" (fun () -> Ops.simulate { sim with horizon = sim.horizon /. 16. } ~seed));
  ignore (attempt "warm-up estimate" (fun () -> Ops.estimate (List.hd w.estimates)));
  ignore (attempt "warm-up optimize" (fun () -> Ops.solve ~jobs:1 (List.hd w.searches)));
  w

let setups = 15

(* ---- the closed loop ---- *)

(* What the runs of one distinct search gave. *)
type searched = {
  search : Ops.search;
  mutable runs : int;  (** untraced *)
  mutable best_ms : float;  (** fastest untraced run *)
  mutable results : Lognic.Optimizer.solution list;  (** distinct untraced results *)
}

type run = {
  mutable sim_rates : float list;  (** generated packets per host second *)
  mutable sim_wall : float;
  mutable sim_wall_traced : float;
  mutable first_round : Ops.sim_result list;  (** untraced, round 0 *)
  mutable sim_gc : (float * int * int) list;
      (** untraced: minor words, events, major collections *)
  mutable sims_traced : (Ops.sim_result * Sim.Profile.t) list;
  mutable est_count : int;  (** untraced estimate ops *)
  est_best : float array;  (** fastest untraced time of each estimate input, ms *)
  mutable est_wall : float;
  mutable est_wall_traced : float;
  searched : searched list;  (** one per distinct search *)
  mutable opt_wall : float;
  mutable opt_wall_traced : float;
  mutable opt_evals : int;
  mutable opt_traced : (int * int * int) list;  (** evaluations, memo hits, unique *)
}

let fresh (w : workload) =
  {
    sim_rates = [];
    sim_wall = 0.;
    sim_wall_traced = 0.;
    first_round = [];
    sim_gc = [];
    sims_traced = [];
    est_count = 0;
    est_best = Array.make (List.length w.estimates) infinity;
    est_wall = 0.;
    est_wall_traced = 0.;
    searched =
      List.map
        (fun search -> { search; runs = 0; best_ms = infinity; results = [] })
        (List.sort_uniq compare w.searches);
    opt_wall = 0.;
    opt_wall_traced = 0.;
    opt_evals = 0;
    opt_traced = [];
  }

let find_searched r s = List.find (fun x -> x.search = s) r.searched

(* In a traced run every op runs twice, untraced and traced; the order
   alternates by round so neither side always inherits the other's
   warm caches or GC debt. *)
let pair ~traced ~round plain traced_op =
  if not traced then plain ()
  else if round mod 2 = 0 then (plain (); traced_op ())
  else (traced_op (); plain ())

(* One round: the simulations, then the estimates and searches,
   repeated as slots for [w.model_seconds]. The estimates and searches
   thus run at many moments of a run, not at one per simulation; the
   host's speed changes within seconds, and their best times need a
   moment when it is fast. Each op kind starts on a collected,
   compacted heap (untimed), so no op pays major-GC work for the
   simulator's garbage. *)
let rec round r ~traced ~seed ~round:k (w : workload) =
  let pair = pair ~traced ~round:k in
  let nsims = List.length w.sims in
  Gc.compact ();
  List.iteri
    (fun j (input : Ops.sim_input) ->
      let seed = Inputs.sim_seed ~seed ((k * nsims) + j) in
      pair
        (fun () ->
          match attempt "simulate" (fun () -> Ops.timed (fun () -> Ops.simulate input ~seed)) with
          | Some (res, dt) ->
            let rate = float_of_int res.m.generated /. dt in
            eprintf "round %d simulate: %.0f pkts/s\n%!" k rate;
            r.sim_rates <- rate :: r.sim_rates;
            r.sim_wall <- r.sim_wall +. dt;
            r.sim_gc <- (res.minor_words, res.events, res.major_collections) :: r.sim_gc;
            if k = 0 then r.first_round <- r.first_round @ [ res ]
          | None -> ())
        (fun () ->
          let traced () =
            let res, dt = Ops.timed (fun () -> Ops.simulate ~profile:true input ~seed) in
            match Option.bind res.m.metrics Sim.Metrics.profiler with
            | Some p -> (res, p, dt)
            | None -> failwith "no profiler in a traced run"
          in
          match attempt "simulate (traced)" traced with
          | Some (res, p, dt) ->
            r.sim_wall_traced <- r.sim_wall_traced +. dt;
            r.sims_traced <- (res, p) :: r.sims_traced
          | None -> ()))
    w.sims;
  Gc.compact ();
  let t_end = Ops.now () +. w.model_seconds in
  model_slot r ~pair w;
  while Ops.now () < t_end do
    model_slot r ~pair w
  done

(* One slot: every estimate once, with the searches spread evenly
   among them, so that each search too runs at several moments of a
   slot when the estimates take long. *)
and model_slot r ~pair (w : workload) =
  let estimate i text =
    pair
      (fun () ->
        match attempt "estimate" (fun () -> Ops.timed (fun () -> Ops.estimate text)) with
        | Some (_, dt) ->
          r.est_count <- r.est_count + 1;
          r.est_best.(i) <- Float.min r.est_best.(i) (dt *. 1e3);
          r.est_wall <- r.est_wall +. dt
        | None -> ())
      (fun () ->
        match
          attempt "estimate (traced)" (fun () ->
              Ops.timed (fun () -> Ops.estimate_traced text))
        with
        | Some (_, dt) ->
          r.est_wall_traced <- r.est_wall_traced +. dt;
          Ops.Ledger.add "estimate.ops" 1.
        | None -> ())
  in
  let search s =
    pair
      (fun () ->
        match attempt "optimize" (fun () -> Ops.timed (fun () -> Ops.solve ~jobs:1 s)) with
        | Some ((_, sol), dt) ->
          let x = find_searched r s in
          x.runs <- x.runs + 1;
          x.best_ms <- Float.min x.best_ms (dt *. 1e3);
          if not (List.exists (Ops.same_solution sol) x.results) then
            x.results <- sol :: x.results;
          r.opt_wall <- r.opt_wall +. dt;
          r.opt_evals <- r.opt_evals + sol.stats.evaluations
        | None -> ())
      (fun () ->
        let observer, unique = Ops.counting_observer () in
        match
          attempt "optimize (traced)" (fun () ->
              Ops.timed (fun () -> Ops.solve ~observer ~jobs:1 s))
        with
        | Some ((_, sol), dt) ->
          r.opt_wall_traced <- r.opt_wall_traced +. dt;
          r.opt_traced <-
            (sol.stats.evaluations, sol.stats.memo_hits, unique ()) :: r.opt_traced
        | None -> ())
  in
  let searches = Array.of_list w.searches in
  let n_est = List.length w.estimates and n_search = Array.length searches in
  let next = ref 0 in
  List.iteri
    (fun i text ->
      estimate i text;
      (* search j follows estimate (j + 1) * n_est / n_search - 1 *)
      while !next < n_search && ((!next + 1) * n_est / n_search) - 1 <= i do
        search searches.(!next);
        incr next
      done)
    w.estimates

(* Outside the timed loop: every search must give the same assignment
   and score at jobs = 1 and at jobs = nproc, so each distinct search
   runs once more at jobs = nproc. A mismatch fails the timed op it
   belongs to. *)
let check_searches r =
  List.iter
    (fun x ->
      match Ops.solve ~jobs x.search with
      | exception e ->
        incr attempted;
        incr failed;
        eprintf "FAILED optimize (jobs=%d): %s\n%!" jobs (Printexc.to_string e)
      | _, reference ->
        List.iter
          (fun sol ->
            if not (Ops.same_solution sol reference) then begin
              incr failed;
              eprintf "FAILED optimize: jobs=1 and jobs=%d results differ\n%!" jobs
            end)
          x.results)
    r.searched

(* Outside the timed loop: each sim input once, on a 1/50 horizon,
   under the runtime invariant checkers. *)
let invariant_pass (w : workload) ~seed =
  List.iter
    (fun (input : Ops.sim_input) ->
      match
        attempt "invariants" (fun () ->
            Ops.invariant_violations { input with horizon = input.horizon /. 50. } ~seed)
      with
      | Some 0 | None -> ()
      | Some n ->
        incr failed;
        eprintf "FAILED invariants: %d violations\n%!" n)
    w.sims

(* |model - sim| / sim of the round-0 simulations, averaged:
   deterministic at a fixed seed. NaN (reported as a failed run) when
   a simulation or its model evaluation failed. *)
let model_errors (w : workload) r =
  let err (input : Ops.sim_input) (res : Ops.sim_result) =
    match fst (Ops.model (Ops.parse input.text)) with
    | e ->
      let s = res.m.summary in
      ( Float.abs (e.carried -. s.throughput) /. s.throughput,
        Float.abs (e.latency -. s.mean_latency) /. s.mean_latency )
    | exception _ -> (nan, nan)
  in
  if List.compare_lengths w.sims r.first_round <> 0 then (nan, nan)
  else
    let errs = List.map2 err w.sims r.first_round in
    let n = float_of_int (List.length errs) in
    (sum fst errs /. n, sum snd errs /. n)

(* Outside the timed loop: the optimizer memo race (ROADMAP item 1).
   The echo_md5 search repeats grid points; at jobs = nproc two domains
   can miss the memo on the same point at once. Runs identical searches
   at jobs = nproc and returns their memo hits, as measured; each must
   still give the jobs = 1 result. *)
let race_runs = 20

let memo_race () =
  let _, reference = Ops.solve ~jobs:1 echo_search in
  List.filter_map
    (fun () ->
      match attempt "optimize (memo race)" (fun () -> snd (Ops.solve ~jobs echo_search)) with
      | Some sol ->
        if not (Ops.same_solution sol reference) then begin
          incr failed;
          eprintf "FAILED optimize: echo_md5 at jobs=1 and jobs=%d differ\n%!" jobs
        end;
        Some sol.stats.memo_hits
      | None -> None)
    (List.init race_runs (fun _ -> ()))

let spread = function
  | [] -> 0
  | h :: t -> List.fold_left max h t - List.fold_left min h t

(* Each search of a round at the fastest time any of its identical
   runs took. *)
let best_searches r (w : workload) = List.map (fun s -> (find_searched r s).best_ms) w.searches

(* ---- output ---- *)

let digest r =
  Digest.to_hex (Digest.string (String.concat "\n" (List.map (fun (s : Ops.sim_result) -> s.json) r.first_round)))

let emit ~correct metrics =
  (* a non-finite value (no op of its kind succeeded) prints as 0 with
     correct = false, keeping the line valid JSON *)
  let num v =
    if not (Float.is_finite v) then "0"
    else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v
  in
  let fields =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted !failed (String.concat ", " fields)

let per_layer r (w : workload) ~race =
  let n = float_of_int (List.length r.sims_traced) in
  let per_sim f = ratio (sum f r.sims_traced) n in
  let self phase = per_sim (fun (_, p) -> Sim.Profile.self_seconds p phase) in
  let enters phase = per_sim (fun (_, p) -> float_of_int (Sim.Profile.enter_count p phase)) in
  let untraced f = ratio (sum f r.sim_gc) (float_of_int (List.length r.sim_gc)) in
  let tenant_draws (res : Ops.sim_result) =
    match res.m.tenants with
    | Some t -> float_of_int (Array.fold_left (fun a (row : Sim.Tenant.row) -> a + row.r_offered) 0 t.rows)
    | None -> 0.
  in
  let summary f = per_sim (fun ((res : Ops.sim_result), _) -> f res.m.summary) in
  let delivered = summary (fun s -> float_of_int s.delivered_packets) in
  let offered = summary (fun s -> float_of_int s.offered_packets) in
  let ests = Ops.Ledger.get "estimate.ops" in
  let per_est name = ratio (Ops.Ledger.get name) ests *. 1e6 in
  let searches = float_of_int (List.length r.opt_traced) in
  let evals = sum (fun (e, _, _) -> float_of_int e) r.opt_traced in
  let hits = sum (fun (_, h, _) -> float_of_int h) r.opt_traced in
  let dups = sum (fun (e, _, u) -> float_of_int (e - u)) r.opt_traced in
  let tput_err, _ = model_errors w r in
  let wall_traced = r.sim_wall_traced +. r.est_wall_traced +. r.opt_wall_traced in
  let wall = r.sim_wall +. r.est_wall +. r.opt_wall in
  (* the phases partition the profiled span *)
  let profiled =
    per_sim (fun (_, p) ->
        sum (Sim.Profile.self_seconds p) (List.init Sim.Profile.phase_count Fun.id))
  in
  let other = self Sim.Profile.phase_other in
  let events = per_sim (fun ((res : Ops.sim_result), _) -> float_of_int res.events) in
  let generated = per_sim (fun ((res : Ops.sim_result), _) -> float_of_int res.m.generated) in
  [
    ("trace_overhead", "ratio", ratio wall_traced wall);
    ("event_queue.self_s", "s", self Sim.Profile.phase_queue);
    ("event_queue.ops", "count", enters Sim.Profile.phase_queue);
    ("event_queue.rebuilds", "count", per_sim (fun (res, _) -> float_of_int res.rebuilds));
    ("engine.events", "count", events);
    ("engine.events_per_pkt", "events/pkt", ratio events generated);
    ("ip_node.self_s", "s", self Sim.Profile.phase_node);
    ("ip_node.dispatches", "count", enters Sim.Profile.phase_node);
    ("tenant.draws", "count", per_sim (fun (res, _) -> tenant_draws res));
    ("medium.self_s", "s", self Sim.Profile.phase_media);
    ("medium.transfers", "count", enters Sim.Profile.phase_media);
    ("netsim.other_s", "s", other);
    ("netsim.other_share", "ratio", ratio other profiled);
    ( "gc.minor_words_per_event",
      "words/event",
      ratio (untraced (fun (w, _, _) -> w)) (untraced (fun (_, e, _) -> float_of_int e)) );
    ("gc.major_collections", "count", untraced (fun (_, _, m) -> float_of_int m));
    ("telemetry.delivered", "count", delivered);
    ("telemetry.dropped", "count", summary (fun s -> float_of_int s.dropped_packets));
    ("telemetry.delivered_ratio", "ratio", ratio delivered offered);
    ("model_tput_err", "ratio", tput_err);
    ("dsl.parse_us", "us", per_est "dsl.parse");
    ("graph.validate_us", "us", per_est "graph.validate");
    ("graph.paths", "count", ratio (Ops.Ledger.get "graph.paths") ests);
    ("throughput.evaluate_us", "us", per_est "throughput.evaluate");
    ("latency.path_weights_us", "us", per_est "latency.path_weights");
    ( "latency.evaluate_us",
      "us",
      per_est "latency.evaluate" -. per_est "latency.path_weights" );
    ( "queueing.vertex_us",
      "us",
      ratio (Ops.Ledger.get "queueing.vertex") (Ops.Ledger.get "queueing.vertices") *. 1e6 );
    ("estimate.render_us", "us", per_est "estimate.render");
    ("estimate.samples", "count", float_of_int r.est_count);
    ("optimizer.evals", "count", ratio evals searches);
    ("optimizer.memo_hits", "count", ratio hits searches);
    ("optimizer.memo_hit_ratio", "ratio", ratio hits evals);
    ("optimizer.duplicate_evals", "count", ratio dups searches);
    ("optimizer.evals_per_s", "1/s", ratio (float_of_int r.opt_evals) r.opt_wall);
    ("optimizer.memo_hits_spread", "count", float_of_int (spread race));
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME sim-nvmeof | sim-steering-16vf");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let seed = !seed and traced = !trace = 1 in
  (* The first set-up precedes the loop; set-up i follows the first
     round that ends after i/15 of the run, so that their median is
     taken over the whole run and not over one stretch of host speed. *)
  let w, dt = Ops.timed (fun () -> setup !workload ~seed) in
  let setup_times = ref [ dt ] in
  let setup_again () =
    Gc.compact ();
    setup_times := snd (Ops.timed (fun () -> setup !workload ~seed)) :: !setup_times
  in
  invariant_pass w ~seed;
  let r = fresh w in
  let t0 = Ops.now () in
  let k = ref 0 in
  while !k = 0 || Ops.now () -. t0 < !seconds do
    round r ~traced ~seed ~round:!k w;
    let due = 1 + int_of_float (float_of_int setups *. (Ops.now () -. t0) /. !seconds) in
    while List.length !setup_times < min setups due do
      setup_again ()
    done;
    incr k
  done;
  eprintf "%d rounds in %.2f s\n%!" !k (Ops.now () -. t0);
  while List.length !setup_times < setups do
    setup_again ()
  done;
  check_searches r;
  let race = memo_race () in
  Printf.printf "digest %s seed=%d %s\n" !workload seed (digest r);
  Printf.printf
    "estimates: %d samples; searches: %d; memo hits of %d echo_md5 searches at jobs=%d: [%s], spread %d\n"
    r.est_count
    (List.fold_left (fun acc x -> acc + x.runs) 0 r.searched)
    race_runs jobs
    (String.concat " " (List.map string_of_int race))
    (spread race);
  let metrics =
    if traced then per_layer r w ~race
    else
      let _, lat_err = model_errors w r in
      (* an input whose every run failed stays at infinity, which
         reports the run as incorrect *)
      let est_best = Array.to_list r.est_best in
      [
        ("setup_s", "s", median !setup_times);
        ("sim_pkts_per_s", "1/s", List.fold_left Float.max neg_infinity r.sim_rates);
        ("peak_rss_mb", "MB", peak_rss_mb ());
        ("model_lat_err", "ratio", lat_err);
        ("estimate_p50_ms", "ms", median est_best);
        ("estimate_p95_ms", "ms", percentile 0.95 est_best);
        ("optimize_p50_ms", "ms", median (best_searches r w));
      ]
  in
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  emit ~correct:(!failed = 0 && finite) metrics
