module Json = Telemetry.Json

type config = { reservoir : int }

let default_config = { reservoir = 64 }

type phase = Queue | Service | Wire | Overhead

let phase_name = function
  | Queue -> "queue"
  | Service -> "service"
  | Wire -> "wire"
  | Overhead -> "overhead"

type span = {
  entity : string;
  lane : int;
  phase : phase;
  start : float;
  duration : float;
}

type fate = Pending | Delivered of float | Dropped of { site : string; time : float }

type record = {
  packet : int;
  born : float;
  size : float;
  klass : int;
  mutable fate : fate;
  mutable rev_spans : span list;
  mutable live : bool;
      (* cleared on eviction: the record is unreachable from the final
         reservoir, so recording further spans for it is wasted work *)
}

type t = {
  capacity : int;
  rng : Lognic_numerics.Rng.t;
  slots : record option array;
  mutable seen : int;
  mutable next : int;  (* generation index of the next sampled packet *)
  mutable weight : float;  (* Algorithm L's running W *)
}

let create ?(config = default_config) ~rng () =
  if config.reservoir < 1 then
    invalid_arg "Trace.create: reservoir must be >= 1";
  {
    capacity = config.reservoir;
    rng;
    slots = Array.make config.reservoir None;
    seen = 0;
    next = 0;
    weight = 1.;
  }

let capacity t = t.capacity
let seen t = t.seen

(* Algorithm L reservoir sampling (Li 1994): instead of one rng draw
   per packet, draw a geometrically distributed skip to the next
   sampled packet — O(k log(n/k)) draws in total, and the unsampled
   fast path is a single integer compare with no allocation. The skip
   sequence is still a pure function of the trace rng and the
   (deterministic) generation order — the property the --jobs
   invariance test pins down. *)
let unit_pos t =
  (* uniform on (0, 1]: safe under log *)
  1. -. Lognic_numerics.Rng.float t.rng 1.

let step t =
  t.weight <-
    t.weight *. Float.exp (Float.log (unit_pos t) /. float_of_int t.capacity);
  let gap = Float.log (unit_pos t) /. Float.log1p (-.t.weight) in
  (* gap >= 0 always; clamp the astronomically rare huge skip so the
     index arithmetic below cannot overflow *)
  let gap = if gap < 1e15 then int_of_float gap else max_int / 4 in
  t.next <- t.next + 1 + gap

(* Reads birth time and size from the flight's slot array, and only for
   a sampled packet, so the unsampled path boxes no float. *)
let on_packet t ~packet ~fs ~klass =
  let n = t.seen in
  t.seen <- n + 1;
  let slot =
    if n < t.capacity then begin
      if n = t.capacity - 1 then begin
        (* reservoir just filled: schedule the first replacement *)
        t.next <- n;
        step t
      end;
      n
    end
    else if n = t.next then begin
      let j = Lognic_numerics.Rng.int t.rng t.capacity in
      step t;
      j
    end
    else -1
  in
  if slot < 0 then None
  else begin
    let r =
      {
        packet;
        born = fs.(Telemetry.slot_born);
        size = fs.(Telemetry.slot_size);
        klass;
        fate = Pending;
        rev_spans = [];
        live = true;
      }
    in
    (match t.slots.(slot) with Some old -> old.live <- false | None -> ());
    t.slots.(slot) <- Some r;
    Some r
  end

let add_span r ~entity ~lane ~phase ~start ~duration =
  if r.live && duration > 0. then
    r.rev_spans <- { entity; lane; phase; start; duration } :: r.rev_spans

let deliver r ~time = if r.live then r.fate <- Delivered time
let drop r ~site ~time = if r.live then r.fate <- Dropped { site; time }

(* Records still held by the reservoir, in packet-id (= generation)
   order. A record evicted mid-flight is dead ([live = false]): it
   ignores further spans and is no longer reachable from here. *)
let records t =
  Array.to_list t.slots
  |> List.filter_map Fun.id
  |> List.sort (fun a b -> compare a.packet b.packet)

(* The packet's walk is strictly sequential — queueing, service, wire
   and overhead segments tile [born, delivered] with no gaps or overlap
   — so its critical path is simply every recorded span in time order,
   and the durations sum to the end-to-end latency exactly. *)
let critical_path r =
  List.stable_sort
    (fun a b -> Float.compare a.start b.start)
    (List.rev r.rev_spans)

let span_total r =
  (* Sum in recording (= chronological) order so the float rounding of
     the total matches a left-to-right walk of the timeline. *)
  List.fold_left
    (fun acc s -> acc +. s.duration)
    0.
    (List.rev r.rev_spans)

let latency r =
  match r.fate with Delivered at -> Some (at -. r.born) | Pending | Dropped _ -> None

(* --- Chrome trace-event export (catapult JSON, loads in Perfetto) --- *)

let usec t = t *. 1e6

let entities t =
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun r ->
      List.iter
        (fun s ->
          if not (Hashtbl.mem seen s.entity) then begin
            Hashtbl.add seen s.entity ();
            order := s.entity :: !order
          end)
        (List.rev r.rev_spans))
    (records t);
  List.rev !order

let to_chrome_json t =
  let recs = records t in
  let entity_names = entities t in
  (* pid 1 holds the per-packet lifecycle rows (tid = packet id); each
     simulated entity gets its own process from pid 2 up, with tid =
     engine lane. *)
  let packet_pid = 1 in
  let entity_pid =
    let tbl = Hashtbl.create 16 in
    List.iteri (fun i name -> Hashtbl.replace tbl name (i + 2)) entity_names;
    fun name -> Hashtbl.find tbl name
  in
  let meta ~pid ~name =
    Json.Obj
      [
        ("ph", Json.Str "M");
        ("name", Json.Str "process_name");
        ("pid", Json.Num (float_of_int pid));
        ("args", Json.Obj [ ("name", Json.Str name) ]);
      ]
  in
  let complete ~name ~cat ~pid ~tid ~ts ~dur ~packet =
    Json.Obj
      [
        ("ph", Json.Str "X");
        ("name", Json.Str name);
        ("cat", Json.Str cat);
        ("pid", Json.Num (float_of_int pid));
        ("tid", Json.Num (float_of_int tid));
        ("ts", Json.Num (usec ts));
        ("dur", Json.Num (usec dur));
        ("args", Json.Obj [ ("packet", Json.Num (float_of_int packet)) ]);
      ]
  in
  let instant ~name ~pid ~tid ~ts ~args =
    Json.Obj
      [
        ("ph", Json.Str "i");
        ("name", Json.Str name);
        ("s", Json.Str "t");
        ("pid", Json.Num (float_of_int pid));
        ("tid", Json.Num (float_of_int tid));
        ("ts", Json.Num (usec ts));
        ("args", Json.Obj args);
      ]
  in
  let packet_events r =
    let spans =
      List.map
        (fun s ->
          complete
            ~name:(Printf.sprintf "%s %s" (phase_name s.phase) s.entity)
            ~cat:(phase_name s.phase) ~pid:packet_pid ~tid:r.packet
            ~ts:s.start ~dur:s.duration ~packet:r.packet)
        (critical_path r)
    in
    let birth =
      instant ~name:"arrival" ~pid:packet_pid ~tid:r.packet ~ts:r.born
        ~args:[ ("size", Json.Num r.size); ("class", Json.Num (float_of_int r.klass)) ]
    in
    let outcome =
      match r.fate with
      | Pending -> []
      | Delivered at ->
        [
          instant ~name:"delivery" ~pid:packet_pid ~tid:r.packet ~ts:at
            ~args:[ ("latency_us", Json.Num (usec (at -. r.born))) ];
        ]
      | Dropped { site; time } ->
        [
          instant ~name:"drop" ~pid:packet_pid ~tid:r.packet ~ts:time
            ~args:[ ("site", Json.Str site) ];
        ]
    in
    (birth :: spans) @ outcome
  in
  let entity_events r =
    List.filter_map
      (fun s ->
        match s.phase with
        | Service | Wire ->
          Some
            (complete
               ~name:(Printf.sprintf "p%d" r.packet)
               ~cat:(phase_name s.phase) ~pid:(entity_pid s.entity)
               ~tid:s.lane ~ts:s.start ~dur:s.duration ~packet:r.packet)
        | Queue | Overhead -> None)
      (critical_path r)
  in
  let events =
    (meta ~pid:packet_pid ~name:"packets"
    :: List.map (fun name -> meta ~pid:(entity_pid name) ~name) entity_names)
    @ List.concat_map packet_events recs
    @ List.concat_map entity_events recs
  in
  Json.Obj
    [
      ("displayTimeUnit", Json.Str "ns");
      ("traceEvents", Json.Arr events);
      (* the Chrome trace-event envelope is fixed by the viewer, so the
         schema stamp rides in the metadata object instead of the root *)
      ( "otherData",
        Json.versioned ~kind:"trace_events"
          [
            ("sampled_packets", Json.Num (float_of_int (List.length recs)));
            ("generated_packets", Json.Num (float_of_int t.seen));
            ("reservoir", Json.Num (float_of_int t.capacity));
          ] );
    ]

let to_chrome_string t = Json.to_string (to_chrome_json t)

type Nic.note += Traced of record

let install (nic : Nic.t) config ~rng =
  (* The trace rng is split last — after every stream the untraced run
     splits — so enabling tracing perturbs no other stochastic stream. *)
  let t = create ~config ~rng:(Lognic_numerics.Rng.split rng) () in
  let engine = nic.engine in
  let label (fl : Nic.flight) = nic.vertices.(fl.fl_vertex).v_label in
  (* Span sinks go only on sampled flights: an unsampled flight carries
     [None], so the per-hop span calls in [Ip_node]/[Medium]
     short-circuit before boxing their float arguments — with a
     64-packet reservoir virtually every packet takes that path, which
     is what keeps the traced-run overhead inside its 5% budget. The
     node span fires at service start, while the flight is still parked
     at the serving vertex, so the queue span is the interval ending now
     and the service span the one starting now. Medium spans are
     reported at admission: backlog wait starts now, the wire slice
     follows it. *)
  let sample (fl : Nic.flight) r =
    fl.fl_note <- Traced r;
    fl.fl_span_node <-
      Some
        (fun ~lane ~queued ~service ->
          let start = Engine.now engine and entity = label fl in
          add_span r ~entity ~lane ~phase:Queue ~start:(start -. queued) ~duration:queued;
          add_span r ~entity ~lane ~phase:Service ~start ~duration:service);
    fl.fl_span_medium <-
      Some
        (fun ~label ~queued ~wire ->
          let now = Engine.now engine in
          add_span r ~entity:label ~lane:0 ~phase:Queue ~start:now ~duration:queued;
          add_span r ~entity:label ~lane:0 ~phase:Wire ~start:(now +. queued)
            ~duration:wire);
    fl.fl_span_overhead <-
      Some
        (fun () ->
          add_span r ~entity:(label fl) ~lane:0 ~phase:Overhead ~start:(Engine.now engine)
            ~duration:nic.vertices.(fl.fl_vertex).v_overhead)
  in
  let hooks =
    {
      Nic.no_hooks with
      arrival =
        Some
          (fun fl ->
            match on_packet t ~packet:fl.fl_id ~fs:fl.fs ~klass:fl.fl_klass with
            | Some r -> sample fl r
            | None ->
              fl.fl_note <- Nic.Plain;
              fl.fl_span_node <- None;
              fl.fl_span_medium <- None;
              fl.fl_span_overhead <- None);
      deliver =
        Some
          (fun fl ->
            match fl.fl_note with
            | Traced r -> deliver r ~time:(Engine.now engine)
            | _ -> ());
      drop =
        Some
          (fun fl d ->
            match fl.fl_note with
            | Traced r -> drop r ~site:d.d_name ~time:(Engine.now engine)
            | _ -> ());
    }
  in
  (t, hooks)
