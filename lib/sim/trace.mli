(** Opt-in per-packet lifecycle tracing for the simulator.

    When enabled ({!Netsim.config.trace}), the simulator records every
    segment of a sampled packet's walk through the graph — queue waits,
    per-engine service, per-medium wire time, fixed overheads — plus its
    arrival and its fate (delivery or drop, with the drop site). Memory
    stays bounded however long the run via deterministic reservoir
    sampling (Algorithm L) over packets: the reservoir holds a uniform
    sample of [config.reservoir] packets, and the sampling decisions
    are a pure function of a dedicated rng split from the run seed, so
    traced runs remain bit-identical at any [--jobs] count.

    A packet's walk is strictly sequential, so its recorded spans tile
    [born, delivered] exactly: {!critical_path} is the timeline in
    order, and {!span_total} equals the recorded end-to-end latency.

    {!to_chrome_json} renders the whole trace in Chrome trace-event
    (catapult) JSON, loadable in Perfetto / [chrome://tracing]: one
    process of per-packet lifecycle rows, plus one process per entity
    whose rows are engine lanes. *)

type config = { reservoir : int  (** packets held (default 64) *) }

val default_config : config

type phase =
  | Queue  (** waiting in an IP queue or for medium admission *)
  | Service  (** execution-engine occupancy *)
  | Wire  (** transfer across a medium *)
  | Overhead  (** fixed per-vertex computation-transfer overhead *)

val phase_name : phase -> string

type span = {
  entity : string;  (** vertex label or medium label *)
  lane : int;  (** engine index within the entity (0 for media) *)
  phase : phase;
  start : float;  (** simulated seconds *)
  duration : float;
}

type fate =
  | Pending
  | Delivered of float
  | Dropped of { site : string; time : float }

type record = {
  packet : int;
  born : float;
  size : float;
  klass : int;
  mutable fate : fate;
  mutable rev_spans : span list;  (** newest first; see {!critical_path} *)
  mutable live : bool;
      (** false once evicted from the reservoir; dead records ignore
          further spans (they are unreachable from {!records}) *)
}

type t

val capacity : t -> int

val seen : t -> int
(** Packets offered to the reservoir so far. *)

val records : t -> record list
(** Records still held by the reservoir, in packet-id order. *)

val critical_path : record -> span list
(** The packet's spans in start-time order — its full timeline. *)

val span_total : record -> float
(** Sum of span durations in chronological order; equals
    [latency record] for a delivered packet (the walk tiles the
    packet's lifetime). *)

val latency : record -> float option
(** End-to-end latency for a delivered packet, [None] otherwise. *)

val to_chrome_json : t -> Telemetry.Json.t
(** Chrome trace-event JSON ([ts]/[dur] in microseconds):
    process "packets" has one row per sampled packet (all phases plus
    arrival / delivery / drop instants); each entity is its own process
    whose rows are engine lanes carrying service / wire slices. *)

val to_chrome_string : t -> string

val install : Nic.t -> config -> rng:Lognic_numerics.Rng.t -> t * Nic.hooks
(** Splits the trace rng from [rng] (it must be the last stream split)
    and offers every arrival to the reservoir, once and in generation
    order; packets that win the draw record their (non-zero) spans,
    delivery and drop fates. Raises [Invalid_argument] on a reservoir
    capacity < 1. *)
