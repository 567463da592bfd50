(** Throughput modeling (§3.5, Eqs 1–4).

    For a workload of W bytes entering the SmartNIC, each hardware
    entity needs a certain time to pass its share:

    - IP vertex [i]:   T = W·Σδ_ji / (γ·A·P_vi)  (Eq 1, incoming edges j;
      the γ partition and A acceleration factors scale the physical
      rate as in the latency model)
    - dedicated edge:  T = W·δ_ij / BW_ij
    - interface:       T = W·Σα_ij / BW_INTF    (Eq 2)
    - memory:          T = W·Σβ_ij / BW_MEM     (Eq 2)

    The attainable throughput is W over the largest of these (Eq 3),
    which W cancels out of (Eq 4). Every term is reported so callers can
    attribute the bottleneck, and the offered load BW_in caps the
    carried rate. *)

type bound =
  | Vertex_bound of Graph.vertex_id
  | Edge_bound of Graph.vertex_id * Graph.vertex_id
  | Interface_bound
  | Memory_bound
  | Resource_bound of string
      (** a named shared resource from {!Params.hardware.resources}
          binds — only produced by the multi-resource contention layer
          ({!Extensions.mixed_traffic}); the single-class evaluation
          never emits it *)
  | Offered_load  (** the ingress rate itself is the binding constraint *)

type result = {
  capacity : float;
      (** Eq 4 — the device-side ceiling in bytes/s, independent of the
          offered load *)
  attained : float;  (** min(capacity, BW_in): the carried rate *)
  bottleneck : bound;
      (** which term binds [attained]; ties break toward the first term
          in the order vertex, edge, interface, memory, offered load *)
  vertex_caps : (Graph.vertex_id * float) list;
      (** per-vertex ceiling γ·A·P/Σδ (vertices with no incoming flow and
          infinite-throughput vertices are omitted) *)
  edge_caps : ((Graph.vertex_id * Graph.vertex_id) * float) list;
      (** per-dedicated-edge ceiling BW/δ *)
  interface_cap : float;  (** BW_INTF / Σα (infinite when Σα = 0) *)
  memory_cap : float;  (** BW_MEM / Σβ *)
}

val vertex_inflow : Graph.t -> Graph.vertex_id -> float
(** Σδ over incoming edges; by convention 1 for an ingress vertex (all
    of W enters through it). *)

val media_sums : Graph.Compiled.t -> float * float
(** (Σα, Σβ) over the edges, summed in edge order: the shared-medium
    load per byte of ingress traffic behind Eq 2. *)

val evaluate : Graph.t -> hw:Params.hardware -> traffic:Traffic.t -> result
(** Raises [Invalid_argument] if the graph fails {!Graph.validate}.
    Compiles the graph ({!Graph.Compiled.checked}) but does not
    enumerate its paths. *)

val evaluate_compiled :
  Graph.Compiled.t -> hw:Params.hardware -> traffic:Traffic.t -> result
(** {!evaluate} on a graph already compiled and checked. *)

val attained : Graph.Compiled.t -> hw:Params.hardware -> traffic:Traffic.t -> float
(** [(evaluate_compiled c ~hw ~traffic).attained], bit for bit, without
    building the report — the optimizer's per-candidate score input. *)

val capacity : Graph.t -> hw:Params.hardware -> float
(** Just Eq 4, for optimizer objectives (offered load ignored). *)

val pp_bound : Graph.t -> Format.formatter -> bound -> unit
val pp_result : Graph.t -> Format.formatter -> result -> unit
