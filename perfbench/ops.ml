(* The three op kinds the workloads are made of. Each op goes from DSL
   text to a rendered result through the library entry points the
   [lognic] CLI uses, and validates that result: a failed check raises
   [Check_failed], which the benchmark loop counts as a failed op. *)

module P = Lognic_dsl.Parser
module Sim = Lognic_sim

exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

(* Seconds on the monotonic clock, with nanosecond resolution: the
   shortest ops take tens of microseconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let parse text =
  match P.parse_string text with
  | Ok doc -> doc
  | Error e -> raise (Check_failed ("parse: " ^ e))

let hw_of (doc : P.document) =
  match doc.hardware with
  | Some hw -> hw
  | None -> raise (Check_failed "input has no hardware line")

let traffic_of (doc : P.document) =
  match doc.traffic with
  | Some t -> t
  | None -> raise (Check_failed "input has no traffic line")

let mix_of (doc : P.document) =
  match doc.mix with Some m -> m | None -> [ (traffic_of doc, 1.) ]

let close ?(tol = 1e-9) a b =
  Float.abs (a -. b) <= tol *. Float.max (Float.abs a) (Float.abs b)

(* ---- per-layer ledger (traced runs only) ---- *)

(* Named sums the traced run accumulates: span durations in seconds
   and event counts, normalized per op when reported. *)
module Ledger = struct
  let sums : (string, float ref) Hashtbl.t = Hashtbl.create 64

  let add name v =
    match Hashtbl.find_opt sums name with
    | Some r -> r := !r +. v
    | None -> Hashtbl.add sums name (ref v)

  let get name = match Hashtbl.find_opt sums name with Some r -> !r | None -> 0.

  let span name f =
    let r, dt = timed f in
    add name dt;
    r
end

(* ---- estimate ---- *)

type estimate = {
  latency : float;  (** model mean latency, seconds *)
  carried : float;  (** model carried rate (after blocking), bytes/s *)
}

let pp_class g traffic tp lat =
  Fmt.str "%a" (Lognic.Estimate.pp_report g)
    { Lognic.Estimate.throughput = tp; latency = lat; traffic }

let check_paths (lat : Lognic.Latency.result) =
  let w =
    List.fold_left (fun acc (p : Lognic.Latency.path_report) -> acc +. p.weight) 0.
      lat.per_path
  in
  check (Float.abs (w -. 1.) <= 1e-9) "path weights sum to %.17g" w

let check_estimate ~offered (tps : Lognic.Throughput.result list) latency =
  check (Float.is_finite latency && latency > 0.) "latency %g not finite positive"
    latency;
  let attained =
    List.fold_left (fun acc (tp : Lognic.Throughput.result) -> acc +. tp.attained) 0. tps
  in
  check (attained <= offered *. (1. +. 1e-12)) "attained %g > offered %g" attained
    offered

(* The model side of one document: [Estimate.run] on the traffic line,
   or [Estimate.run_mix] when the document declares classes. *)
let model (doc : P.document) =
  let hw = hw_of doc in
  match doc.mix with
  | None ->
    let traffic = traffic_of doc in
    let r = Lognic.Estimate.run doc.graph ~hw ~traffic in
    check_paths r.latency;
    check_estimate ~offered:traffic.rate [ r.throughput ] r.latency.mean;
    ( { latency = r.latency.mean; carried = r.latency.carried_rate },
      fun () -> Fmt.str "%a" (Lognic.Estimate.pp_report doc.graph) r )
  | Some mix ->
    let r = Lognic.Estimate.run_mix doc.graph ~hw ~mix in
    let offered = ref 0. and carried = ref 0. and tps = ref [] in
    List.iter
      (fun ((t : Lognic.Traffic.t), _, tp, (lat : Lognic.Latency.result)) ->
        check_paths lat;
        offered := !offered +. t.rate;
        carried := !carried +. lat.carried_rate;
        tps := tp :: !tps)
      r.classes;
    check_estimate ~offered:!offered !tps r.latency;
    ( { latency = r.latency; carried = !carried },
      fun () ->
        String.concat "\n"
          (List.map (fun (t, _, tp, lat) -> pp_class doc.graph t tp lat) r.classes) )

let estimate text =
  let doc = parse text in
  let e, render = model doc in
  ignore (render () : string);
  e

(* The traced estimate: the same op with a span around each model
   layer. [Estimate.run] is exactly [Throughput.evaluate] plus
   [Latency.evaluate] on the traffic line, so those two spans are the
   op itself for a single-class document; for a two-class document
   they are probes run next to the joint [Estimate.run_mix] call (span
   [estimate.model]). [Latency.path_weights] and
   [Latency.vertex_queueing] are probes of work [Latency.evaluate]
   does inside, so the latency layer's self time is its span minus the
   path-weights span. *)
let estimate_traced text =
  let doc = Ledger.span "dsl.parse" (fun () -> parse text) in
  let g = doc.graph and hw = hw_of doc and traffic = traffic_of doc in
  (match Ledger.span "graph.validate" (fun () -> Lognic.Graph.validate g) with
  | Ok () -> ()
  | Error es -> raise (Check_failed (String.concat "; " es)));
  let weights = Ledger.span "latency.path_weights" (fun () -> Lognic.Latency.path_weights g) in
  Ledger.add "graph.paths" (float_of_int (List.length weights));
  let vertices = Lognic.Graph.vertices g in
  Ledger.span "queueing.vertex" (fun () ->
      List.iter
        (fun (v : Lognic.Graph.vertex) ->
          ignore (Lognic.Latency.vertex_queueing g ~traffic v.id : float))
        vertices);
  Ledger.add "queueing.vertices" (float_of_int (List.length vertices));
  let tp = Ledger.span "throughput.evaluate" (fun () -> Lognic.Throughput.evaluate g ~hw ~traffic) in
  let lat = Ledger.span "latency.evaluate" (fun () -> Lognic.Latency.evaluate g ~hw ~traffic) in
  let e, render =
    match doc.mix with
    | Some _ -> Ledger.span "estimate.model" (fun () -> model doc)
    | None ->
      check_paths lat;
      check_estimate ~offered:traffic.rate [ tp ] lat.mean;
      ( { latency = lat.mean; carried = lat.carried_rate },
        fun () -> pp_class g traffic tp lat )
  in
  ignore (Ledger.span "estimate.render" render : string);
  e

(* ---- simulate ---- *)

type sim_input = { text : string; horizon : float; tenants : int }

type sim_result = {
  m : Sim.Netsim.measurement;
  json : string;  (** the rendered measurement JSON *)
  events : int;
  rebuilds : int;
  minor_words : float;
  major_collections : int;
}

let config ?(invariants = false) ?(profile = false) input ~seed =
  let c = Sim.Netsim.Config.(default |> with_horizon input.horizon |> with_seed seed) in
  let c =
    if input.tenants >= 2 then
      Sim.Netsim.Config.with_tenants (Sim.Tenant.uniform input.tenants) c
    else c
  in
  let c = Sim.Netsim.Config.with_invariants invariants c in
  if profile then
    Sim.Netsim.Config.with_metrics
      { Sim.Metrics.default_config with interval = input.horizon /. 4.; profile = true }
      c
  else c

let check_sim (doc : P.document) (m : Sim.Netsim.measurement) =
  let s = m.summary in
  let dropped = List.fold_left (fun acc (_, n) -> acc + n) 0 m.drop_breakdown in
  check (dropped = s.dropped_packets) "drop_breakdown sums to %d, dropped_packets %d"
    dropped s.dropped_packets;
  let t = s.latency_terms in
  let terms = t.queueing +. t.service +. t.wire +. t.overhead in
  check (close terms s.mean_latency) "latency_terms sum %.17g <> mean %.17g" terms
    s.mean_latency;
  check (s.loss_rate >= 0. && s.loss_rate <= 1.) "loss_rate %g" s.loss_rate;
  check (s.delivered_packets <= s.offered_packets) "delivered %d > offered %d"
    s.delivered_packets s.offered_packets;
  let biggest =
    List.fold_left (fun acc ((t : Lognic.Traffic.t), _) -> Float.max acc t.packet_size) 0.
      (mix_of doc)
  in
  let offered = float_of_int s.offered_packets *. biggest /. s.window in
  check (s.throughput <= offered *. (1. +. 1e-9)) "throughput %g > offered %g"
    s.throughput offered

let simulate ?(profile = false) input ~seed =
  let doc = parse input.text in
  let run =
    Sim.Netsim.Run.make ~config:(config ~profile input ~seed) doc.graph ~hw:(hw_of doc)
      ~mix:(mix_of doc)
  in
  let engine = Sim.Engine.create () in
  let gc0 = Gc.quick_stat () in
  let m = Sim.Netsim.execute_with ~engine run in
  let gc1 = Gc.quick_stat () in
  let json = Sim.Telemetry.Json.to_string (Sim.Netsim.measurement_to_json m) in
  check_sim doc m;
  {
    m;
    json;
    events = Sim.Engine.executed engine;
    rebuilds = Sim.Engine.queue_resizes engine;
    minor_words = gc1.minor_words -. gc0.minor_words;
    major_collections = gc1.major_collections - gc0.major_collections;
  }

(* Runs [input] with the runtime invariant checkers on; returns the
   violation count. *)
let invariant_violations input ~seed =
  let doc = parse input.text in
  let m =
    Sim.Netsim.execute
      (Sim.Netsim.Run.make
         ~config:(config ~invariants:true input ~seed)
         doc.graph ~hw:(hw_of doc) ~mix:(mix_of doc))
  in
  check_sim doc m;
  match m.invariants with
  | Some r -> r.total_violations
  | None -> raise (Check_failed "invariant report missing")

(* ---- optimize ---- *)

type knob =
  | Split of string
  | Queue of string * int * int
  | Throughputs of string * float array

type search = {
  s_text : string;
  knobs : knob list;
  objective : Lognic.Optimizer.objective;
}

let solve ?observer ~jobs s =
  let doc = parse s.s_text in
  let id name =
    match P.vertex_id doc name with
    | Some id -> id
    | None -> raise (Check_failed ("unknown vertex " ^ name))
  in
  let knobs =
    List.map
      (function
        | Split v -> Lognic.Optimizer.Out_split (id v)
        | Queue (v, lo, hi) -> Lognic.Optimizer.Queue_capacity (id v, lo, hi)
        | Throughputs (v, cs) -> Lognic.Optimizer.Vertex_throughput (id v, cs))
      s.knobs
  in
  let sol =
    Lognic.Optimizer.optimize ?observer ~jobs doc.graph ~hw:(hw_of doc)
      ~traffic:(traffic_of doc) ~knobs s.objective
  in
  let rendered =
    String.concat "\n"
      (List.map (Fmt.str "%a" Lognic.Optimizer.pp_assignment) sol.assignment)
    ^ Fmt.str "@.%a" (Lognic.Estimate.pp_report sol.graph) sol.report
  in
  ignore (rendered : string);
  (doc, sol)

(* Two solutions agree when they pick the same assignment and score it
   identically. *)
let same_solution (a : Lognic.Optimizer.solution) (b : Lognic.Optimizer.solution) =
  a.assignment = b.assignment
  && Float.equal a.report.latency.mean b.report.latency.mean
  && Float.equal a.report.throughput.attained b.report.throughput.attained
  && Float.equal a.report.latency.carried_rate b.report.latency.carried_rate

(* The optimizer's memo canonicalization, restated: assignments sorted
   by (kind, vertex), floats by bit pattern. Used by the traced run's
   observer to count the unique candidates a search evaluated. *)
let canonical (a : Lognic.Optimizer.assignment list) =
  let open Lognic.Optimizer in
  let key = function
    | Set_throughput (v, x) -> (0, v, [ x ])
    | Set_queue_capacity (v, n) -> (1, v, [ float_of_int n ])
    | Set_split (v, fs) -> (2, v, fs)
    | Set_partition (v, x) -> (3, v, [ x ])
    | Set_accel (v, x) -> (4, v, [ x ])
    | Set_ingress_rate x -> (5, -1, [ x ])
  in
  let keys = List.stable_sort (fun (r, v, _) (r', v', _) -> compare (r, v) (r', v')) (List.map key a) in
  String.concat ";"
    (List.map
       (fun (r, v, xs) ->
         Printf.sprintf "%d:%d=%s" r v
           (String.concat "," (List.map (fun x -> Int64.to_string (Int64.bits_of_float x)) xs)))
       keys)

(* An observer counting evaluations and unique canonical candidates;
   the optimizer calls it from several domains at once. *)
let counting_observer () =
  let seen = Hashtbl.create 1024 and mutex = Mutex.create () in
  let observer (o : Lognic.Optimizer.observation) =
    let k = canonical o.candidate in
    Mutex.protect mutex (fun () -> Hashtbl.replace seen k ())
  in
  (observer, fun () -> Hashtbl.length seen)
