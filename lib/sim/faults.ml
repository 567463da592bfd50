type fault =
  | Engine_down of { vertex : string; engines : int }
  | Medium_degraded of { medium : string; factor : float }
  | Queue_shrunk of { vertex : string; capacity : int }
  | Drop_burst of { probability : float }

type event = { start : float; stop : float; fault : fault }
type plan = event list

let empty = []
let is_empty plan = plan = []

let check_window ~start ~stop =
  if not (Float.is_finite start && Float.is_finite stop) then
    invalid_arg "Faults: event window must be finite";
  if start < 0. then invalid_arg "Faults: event start must be >= 0";
  if stop <= start then invalid_arg "Faults: event stop must be > start"

let engine_down ~vertex ~engines ~start ~stop =
  check_window ~start ~stop;
  if engines < 1 then invalid_arg "Faults.engine_down: engines must be >= 1";
  { start; stop; fault = Engine_down { vertex; engines } }

let medium_degraded ~medium ~factor ~start ~stop =
  check_window ~start ~stop;
  if (not (Float.is_finite factor)) || factor <= 0. || factor > 1. then
    invalid_arg "Faults.medium_degraded: factor must be in (0, 1]";
  { start; stop; fault = Medium_degraded { medium; factor } }

let queue_shrunk ~vertex ~capacity ~start ~stop =
  check_window ~start ~stop;
  if capacity < 1 then invalid_arg "Faults.queue_shrunk: capacity must be >= 1";
  { start; stop; fault = Queue_shrunk { vertex; capacity } }

let drop_burst ~probability ~start ~stop =
  check_window ~start ~stop;
  if (not (Float.is_finite probability)) || probability < 0. || probability > 1.
  then invalid_arg "Faults.drop_burst: probability must be in [0, 1]";
  { start; stop; fault = Drop_burst { probability } }

let fault_label = function
  | Engine_down { vertex; _ } -> "engine_down:" ^ vertex
  | Medium_degraded { medium; _ } -> "degrade:" ^ medium
  | Queue_shrunk { vertex; _ } -> "queue_shrink:" ^ vertex
  | Drop_burst _ -> "drop_burst"

let event_to_json ev =
  let module J = Telemetry.Json in
  let param =
    match ev.fault with
    | Engine_down { engines; _ } -> ("engines", J.Num (float_of_int engines))
    | Medium_degraded { factor; _ } -> ("factor", J.Num factor)
    | Queue_shrunk { capacity; _ } -> ("capacity", J.Num (float_of_int capacity))
    | Drop_burst { probability } -> ("probability", J.Num probability)
  in
  J.Obj
    [
      ("fault", J.Str (fault_label ev.fault));
      ("start", J.Num ev.start);
      ("stop", J.Num ev.stop);
      param;
    ]

let to_json plan =
  Telemetry.Json.Arr (List.map event_to_json plan)

let intervals ~duration plan =
  if not (Float.is_finite duration && duration > 0.) then
    invalid_arg "Faults.intervals: duration must be positive and finite";
  let boundaries =
    List.concat_map
      (fun ev ->
        List.filter (fun t -> t > 0. && t < duration) [ ev.start; ev.stop ])
      plan
    |> List.sort_uniq Float.compare
  in
  let edges = (0. :: boundaries) @ [ duration ] in
  let rec pair = function
    | a :: (b :: _ as rest) ->
      (* an event covers the whole interval iff it covers its start
         (boundaries include every event edge, so partial overlap is
         impossible) *)
      let active =
        List.filter (fun ev -> ev.start <= a && ev.stop > a) plan
      in
      (a, b, active) :: pair rest
    | _ -> []
  in
  pair edges

let modifier_of_events events =
  List.fold_left
    (fun (m : Lognic.Degraded.modifier) ev ->
      match ev.fault with
      | Engine_down { vertex; engines } ->
        { m with engines_down = m.engines_down @ [ (vertex, engines) ] }
      | Medium_degraded { medium; factor } ->
        { m with media_factors = m.media_factors @ [ (medium, factor) ] }
      | Queue_shrunk { vertex; capacity } ->
        { m with queue_caps = m.queue_caps @ [ (vertex, capacity) ] }
      | Drop_burst { probability } ->
        {
          m with
          ingress_drop = 1. -. ((1. -. m.ingress_drop) *. (1. -. probability));
        })
    Lognic.Degraded.no_modifier events

let modifiers ~duration plan =
  List.map
    (fun (a, b, events) -> (a, b, modifier_of_events events))
    (intervals ~duration plan)

let pp ppf plan =
  if is_empty plan then Fmt.pf ppf "no faults"
  else
    Fmt.pf ppf "@[<v>%a@]"
      (Fmt.list ~sep:Fmt.cut (fun ppf ev ->
           Fmt.pf ppf "[%g, %g) %s" ev.start ev.stop (fault_label ev.fault)))
      plan

(* ---- realization inside a simulation run ------------------------------ *)

type interval_stats = {
  i_start : float;
  i_stop : float;
  i_faults : string list;
  i_offered : int;
  i_delivered : int;
  i_dropped : int;
  i_throughput : float;
  i_latency : float;
}

type resilience = {
  recovery_time : float option;
  worst_throughput : float;
  worst_start : float;
}

let rec remove_first x = function
  | [] -> []
  | y :: rest -> if y = x then rest else y :: remove_first x rest

(* The recovery summary of a run's interval rows; [None] unless some
   fault was active. *)
let resilience_of ~duration rows =
  match List.filter (fun row -> row.i_faults <> []) rows with
  | [] -> None
  | first :: rest as faulted ->
    let first_fault_start =
      List.fold_left (fun acc row -> Float.min acc row.i_start) infinity faulted
    in
    let last_fault_end =
      List.fold_left (fun acc row -> Float.max acc row.i_stop) 0. faulted
    in
    let healthy = List.filter (fun row -> row.i_faults = []) rows in
    (* Baseline: time-weighted throughput over healthy intervals
       before the first fault; when the plan faults from t = 0, any
       healthy interval has to stand in. *)
    let baseline_over rows =
      let time, bytes =
        List.fold_left
          (fun (t, by) row ->
            let len = row.i_stop -. row.i_start in
            (t +. len, by +. (row.i_throughput *. len)))
          (0., 0.) rows
      in
      if time > 0. then Some (bytes /. time) else None
    in
    let baseline =
      let pre_fault =
        List.filter (fun row -> row.i_stop <= first_fault_start) healthy
      in
      match baseline_over pre_fault with
      | Some b -> Some b
      | None -> baseline_over healthy
    in
    let recovery_time =
      match baseline with
      | Some base when last_fault_end < duration ->
        List.find_opt
          (fun row -> row.i_start >= last_fault_end && row.i_throughput >= 0.9 *. base)
          rows
        |> Option.map (fun row -> row.i_start -. last_fault_end)
      | _ -> None
    in
    let worst =
      List.fold_left
        (fun acc row -> if row.i_throughput < acc.i_throughput then row else acc)
        first rest
    in
    Some
      {
        recovery_time;
        worst_throughput = worst.i_throughput;
        worst_start = worst.i_start;
      }

let install (nic : Nic.t) plan ~rng ~duration =
  (* The fault rng is split after the per-node rngs and before the
     tenant, flow and trace rngs, and only when a plan is present, so an
     empty plan leaves every stream where a fault-free run puts it. *)
  let frng = Lognic_numerics.Rng.split rng in
  let engine = nic.engine in
  let spans = intervals ~duration plan in
  let boundaries =
    let grid = List.init 64 (fun i -> float_of_int i *. duration /. 64.) in
    let edges = List.map (fun (a, _, _) -> a) spans in
    Array.of_list (List.sort_uniq Float.compare (grid @ edges))
  in
  let nbins = Array.length boundaries in
  (* Per-packet accounting by birth sub-interval: the fault-plan edges
     refined with a uniform duration/64 grid, so recovery after the last
     fault clears is observable at finer resolution than the plan's own
     boundaries. *)
  let offered = Array.make nbins 0 and delivered = Array.make nbins 0 in
  let dropped = Array.make nbins 0 in
  let bytes = Array.make nbins 0. and latency = Array.make nbins 0. in
  (* The birth bin of a flight; takes the flight, not its birth time, so
     the per-packet call boxes no float. *)
  let bin_of (fl : Nic.flight) =
    let t = fl.fs.(Telemetry.slot_born) in
    let lo = ref 0 and hi = ref (nbins - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if boundaries.(mid) <= t then lo := mid else hi := mid - 1
    done;
    !lo
  in
  let node_of vertex =
    let is_target ((v : Lognic.Graph.vertex), _) = v.label = vertex in
    match List.find_opt is_target nic.nodes with
    | Some (_, node) -> node
    | None ->
      invalid_arg
        (Printf.sprintf
           "Netsim: fault targets unknown or infinite-throughput vertex %S" vertex)
  in
  let medium_of label =
    match List.find_opt (fun m -> Medium.label m = label) nic.media with
    | Some m -> m
    | None -> invalid_arg (Printf.sprintf "Netsim: fault targets unknown medium %S" label)
  in
  (* Validate every target up front so a bad plan fails before the
     simulation starts, not at the event's fire time. *)
  List.iter
    (fun ev ->
      match ev.fault with
      | Engine_down { vertex; _ } | Queue_shrunk { vertex; _ } -> ignore (node_of vertex)
      | Medium_degraded { medium; _ } -> ignore (medium_of medium)
      | Drop_burst _ -> ())
    plan;
  (* Overlapping faults compose; each target keeps its active
     contributions in activation order and the effective value is
     recomputed from that list on every change, so apply/revert
     sequences are deterministic and leave no floating-point residue
     once all faults clear. *)
  let down = Hashtbl.create 4 and factors = Hashtbl.create 4 in
  let caps = Hashtbl.create 4 in
  let bursts = ref [] and burst_p = ref 0. in
  let active key table = Option.value (Hashtbl.find_opt table key) ~default:[] in
  let set_down vertex delta =
    let node = node_of vertex in
    Hashtbl.replace down vertex delta;
    Ip_node.set_offline node (min (Ip_node.engines node) (List.fold_left ( + ) 0 delta))
  in
  let set_factor medium fs =
    Hashtbl.replace factors medium fs;
    Medium.set_scale (medium_of medium) (List.fold_left ( *. ) 1. fs)
  in
  let set_cap vertex cs =
    Hashtbl.replace caps vertex cs;
    Ip_node.set_capacity_override (node_of vertex)
      (match cs with [] -> None | cs -> Some (List.fold_left min max_int cs))
  in
  let set_bursts ps =
    bursts := ps;
    burst_p := 1. -. List.fold_left (fun acc p -> acc *. (1. -. p)) 1. ps
  in
  let apply ev () =
    match ev.fault with
    | Engine_down { vertex; engines } ->
      set_down vertex (active vertex down @ [ engines ])
    | Medium_degraded { medium; factor } ->
      set_factor medium (active medium factors @ [ factor ])
    | Queue_shrunk { vertex; capacity } ->
      set_cap vertex (active vertex caps @ [ capacity ])
    | Drop_burst { probability } -> set_bursts (!bursts @ [ probability ])
  in
  let revert ev () =
    match ev.fault with
    | Engine_down { vertex; engines } ->
      set_down vertex (remove_first engines (active vertex down))
    | Medium_degraded { medium; factor } ->
      set_factor medium (remove_first factor (active medium factors))
    | Queue_shrunk { vertex; capacity } ->
      set_cap vertex (remove_first capacity (active vertex caps))
    | Drop_burst { probability } -> set_bursts (remove_first probability !bursts)
  in
  List.iter
    (fun ev ->
      if ev.start < duration then begin
        Engine.schedule engine ~at:ev.start (apply ev);
        if ev.stop < duration then Engine.schedule engine ~at:ev.stop (revert ev)
      end)
    plan;
  let hooks =
    {
      Nic.no_hooks with
      arrival =
        Some
          (fun fl ->
            let b = bin_of fl in
            offered.(b) <- offered.(b) + 1);
      (* An active drop burst sheds the packet at ingress. The draw comes
         from the dedicated fault rng, and only while a burst is active,
         so burst-free plans consume nothing from it. *)
      admit =
        Some
          (fun _ ->
            not (!burst_p > 0. && Lognic_numerics.Rng.float frng 1. < !burst_p));
      deliver =
        Some
          (fun fl ->
            let b = bin_of fl in
            delivered.(b) <- delivered.(b) + 1;
            bytes.(b) <- bytes.(b) +. fl.fs.(Telemetry.slot_size);
            latency.(b) <-
              latency.(b) +. (Engine.now engine -. fl.fs.(Telemetry.slot_born)));
      drop =
        Some
          (fun fl _ ->
            let b = bin_of fl in
            dropped.(b) <- dropped.(b) + 1);
    }
  in
  let labels_at t =
    match List.find_opt (fun (a, b, _) -> t >= a && t < b) spans with
    | Some (_, _, events) -> List.map (fun ev -> fault_label ev.fault) events
    | None -> []
  in
  let rows () =
    List.init nbins (fun i ->
        let a = boundaries.(i) in
        let b = if i + 1 < nbins then boundaries.(i + 1) else duration in
        let len = b -. a in
        {
          i_start = a;
          i_stop = b;
          i_faults = labels_at a;
          i_offered = offered.(i);
          i_delivered = delivered.(i);
          i_dropped = dropped.(i);
          i_throughput = (if len > 0. then bytes.(i) /. len else 0.);
          i_latency =
            (if delivered.(i) > 0 then latency.(i) /. float_of_int delivered.(i)
             else 0.);
        })
  in
  ((fun () -> let rows = rows () in (rows, resilience_of ~duration rows)), hooks)

let interval_to_json r =
  let module J = Telemetry.Json in
  J.Obj
    [
      ("start", J.Num r.i_start);
      ("stop", J.Num r.i_stop);
      ("faults", J.Arr (List.map (fun l -> J.Str l) r.i_faults));
      ("offered", J.Num (float_of_int r.i_offered));
      ("delivered", J.Num (float_of_int r.i_delivered));
      ("dropped", J.Num (float_of_int r.i_dropped));
      ("throughput", J.Num r.i_throughput);
      ("latency", J.Num r.i_latency);
    ]

let resilience_to_json r =
  let module J = Telemetry.Json in
  J.Obj
    [
      ("recovery_time", match r.recovery_time with None -> J.Null | Some t -> J.Num t);
      ("worst_throughput", J.Num r.worst_throughput);
      ("worst_start", J.Num r.worst_start);
    ]
