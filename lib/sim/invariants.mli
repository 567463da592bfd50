(** Runtime conservation-law checking for simulation runs.

    The simulator's quantities obey a family of exact or near-exact laws:
    every injected packet is eventually delivered, dropped, or still in
    flight at the horizon; the per-site drop breakdown sums to the
    aggregate drop counter; the four {!Telemetry.latency_terms}
    components tile each delivered packet's end-to-end latency; no
    entity is ever more than 100% utilized; bounded queues never hold
    more than their capacity; the event queue pops times in
    non-decreasing order. A checker ([t]) accumulates structured
    violation records for any law that fails, so a broken invariant
    points at the entity and simulated time where the books stopped
    balancing instead of surfacing later as a subtly-wrong summary.

    Checking is opt-in ({!Netsim.config.check_invariants}); the disabled
    path adds no work to the simulator hot loop (enforced by the
    [bench/main.exe --invariant-overhead] gate). *)

type violation = {
  law : string;  (** stable kebab-case law name, e.g. ["packet-conservation"] *)
  entity : string;  (** vertex/medium label, ["run"], or ["packet-<id>"] *)
  time : float;  (** simulated seconds when the check ran *)
  expected : float;
  actual : float;
  detail : string;  (** human-readable statement of the law *)
}

type report = {
  checks : int;  (** individual law evaluations performed *)
  total_violations : int;
  violations : violation list;
      (** first {!max_recorded} violations in detection order; the
          count above is not capped *)
}

val max_recorded : int
(** Violations kept verbatim in a report (100); a systemically broken
    run can fail millions of per-packet checks and the report should
    not grow with it. *)

type t
(** A mutable checker accumulating violations over one run. *)

val create : unit -> t

(** {1 Generic checks}

    Every check increments [checks] and records a violation on failure.
    Closeness is relative-with-floor: values pass when
    [|expected - actual| <= tol * max 1. (max |expected| |actual|)],
    so laws about quantities near zero are not held to impossible
    absolute precision. A non-finite [actual] always fails. *)

val check_close :
  t ->
  law:string ->
  entity:string ->
  time:float ->
  ?tol:float ->
  expected:float ->
  actual:float ->
  string ->
  unit
(** [tol] defaults to [1e-9]. *)

val check_count :
  t ->
  law:string ->
  entity:string ->
  time:float ->
  expected:int ->
  actual:int ->
  string ->
  unit
(** Exact integer equality. *)

val check_bound :
  t ->
  law:string ->
  entity:string ->
  time:float ->
  ?tol:float ->
  limit:float ->
  actual:float ->
  string ->
  unit
(** Passes when [actual <= limit] up to the relative tolerance
    ([tol] defaults to [1e-9]); the violation stores [limit] as
    [expected]. *)

val check_nonneg :
  t -> law:string -> entity:string -> time:float -> actual:float -> string -> unit

(** {1 Packet-fate ledger}

    Every packet id must be injected exactly once and resolved
    (delivered or dropped) at most once; ids resolved without a live
    injection record a ["packet-fate"] violation — the signature of a
    double delivery or double drop. *)

val packet_injected : t -> id:int -> time:float -> unit
val packet_delivered : t -> id:int -> time:float -> unit
val packet_dropped : t -> id:int -> time:float -> unit

val injected : t -> int
val delivered : t -> int
val dropped : t -> int

val in_flight : t -> int
(** Injected packets not yet delivered or dropped. *)

val check_conservation : t -> time:float -> generated:int -> unit
(** The ledger's closing entry: injected = delivered + dropped +
    in-flight, and injected agrees with the traffic generator's own
    count ([generated]). *)

val observe_event_time : t -> float -> unit
(** Feed every popped event time in execution order; times must be
    non-decreasing (["event-monotonicity"]). *)

val check_summary : t -> horizon:float -> Telemetry.summary -> unit
(** The {!Telemetry.summary} self-consistency laws: the drop breakdown
    sums to [dropped_packets], per-class delivered counts sum to
    [delivered_packets], the mean latency-term decomposition tiles
    [mean_latency], [throughput]/[packet_rate] agree with
    delivered bytes/packets over the window, [loss_rate] is in [0, 1],
    the window fits the horizon, and (when anything was delivered)
    p50 ≤ p99 ≤ max and mean ≤ max. *)

(** {1 Simulator hooks} *)

val install : Nic.t -> faulted:bool -> t * Nic.hooks
(** A fresh checker plus its packet-walk hooks: packet fates, Eq. 2
    latency tiling at egress, and queue / engine / medium-buffer bounds
    right after each admission (the medium-buffer law is skipped when
    [faulted]: a bandwidth restore mid-backlog legitimately re-values
    the queued bytes). Feed {!observe_event_time} to the engine. *)

val finish :
  t ->
  Nic.t ->
  horizon:float ->
  generated:int ->
  birth_bins:(int * int) list ->
  Telemetry.summary ->
  report
(** The end-of-run laws — per-node and per-medium utilization and busy
    time, {!check_conservation}, each fault birth bin's
    [(offered, resolved)] bound, {!check_summary} — then {!report}. *)

(** {1 Reporting} *)

val report : t -> report
(** Snapshot of everything checked so far (violations in detection
    order). *)

val ok : report -> bool
(** No violations. *)

val pp_violation : Format.formatter -> violation -> unit
val violation_to_json : violation -> Telemetry.Json.t

val report_to_json : report -> Telemetry.Json.t
(** [{"checks": n, "violations": n, "recorded": [...]}] — a fragment
    for embedding, not a versioned document. *)
