(** Software execution graphs (§3.3).

    A SmartNIC-offloaded program is a directed acyclic graph whose
    vertices are hardware entities a packet visits — the ingress engine,
    IP blocks (NIC cores, accelerators, opaque devices like an SSD), and
    the egress engine — and whose edges are data movements between them
    over the interface and/or the memory subsystem.

    Per-edge parameters (Table 2):
    - [delta] (δ): fraction of the total ingress workload W that crosses
      this edge;
    - [alpha] (α): fraction of W this edge pushes over the shared SoC
      {e interface};
    - [beta] (β): fraction of W this edge pushes through the {e memory}
      subsystem;
    - [bandwidth]: optional dedicated IP-IP link capacity (BW_mn), for
      point-to-point fabrics characterized separately.

    Per-vertex parameters live in {!type:service}. *)

type vertex_id = int

type kind =
  | Ingress  (** wire/PCIe entry engine *)
  | Egress  (** wire/PCIe exit engine *)
  | Ip  (** an IP block: CPU cluster, accelerator, DSP, opaque device *)

type service = {
  throughput : float;
      (** P_vi — aggregate computing throughput of the (physical) IP in
          bytes/s of consumed traffic. For ingress/egress this is the
          port line rate. *)
  parallelism : int;
      (** D_vi — number of requests concurrently sharing the IP; scales
          the per-request service time in the latency model (Eq 7). *)
  queue_capacity : int;
      (** N_vi — virtual shared queue capacity (entries) for the M/M/1/N
          queueing term (Eq 12). *)
  overhead : float;
      (** O_i — computation-transfer overhead in seconds paid when this
          vertex hands work to the next one (Eq 5). *)
  accel : float;
      (** A_i — kernel acceleration factor dividing the compute term
          (≥ 1 speeds the IP up; default 1). *)
  partition : float;
      (** γ_vi ∈ (0, 1] — share of the physical IP this (virtual) vertex
          owns under multiplexing (Extension #1). *)
}

val default_service : service
(** Infinite throughput, parallelism 1, queue capacity 64, no overhead,
    accel 1, full partition — a transparent vertex. *)

val service :
  ?parallelism:int ->
  ?queue_capacity:int ->
  ?overhead:float ->
  ?accel:float ->
  ?partition:float ->
  throughput:float ->
  unit ->
  service
(** Builder with defaults from {!default_service}; raises
    [Invalid_argument] on out-of-domain values. *)

type vertex = private {
  id : vertex_id;
  kind : kind;
  label : string;
  service : service;
}

type edge = private {
  src : vertex_id;
  dst : vertex_id;
  delta : float;
  alpha : float;
  beta : float;
  bandwidth : float option;
}

type t

val empty : t

val add_vertex : kind:kind -> label:string -> service:service -> t -> t * vertex_id
(** Vertex ids are assigned densely from 0 in insertion order. *)

val add_edge :
  ?delta:float ->
  ?alpha:float ->
  ?beta:float ->
  ?bandwidth:float ->
  src:vertex_id ->
  dst:vertex_id ->
  t ->
  t
(** [delta] defaults to 1 (the full workload crosses), [alpha]/[beta] to
    0 (no shared-medium usage). Raises [Invalid_argument] on unknown
    vertices, self loops, negative parameters, or a duplicate
    (src, dst) pair. *)

(** {1 Accessors} *)

val vertex : t -> vertex_id -> vertex
(** Raises [Invalid_argument] on an unknown id. *)

val vertices : t -> vertex list
(** In id order. *)

val edges : t -> edge list
val edge : t -> src:vertex_id -> dst:vertex_id -> edge option
val in_edges : t -> vertex_id -> edge list
val out_edges : t -> vertex_id -> edge list
val in_degree : t -> vertex_id -> int
val ingress_vertices : t -> vertex list
val egress_vertices : t -> vertex list
val vertex_count : t -> int

val find_vertex : t -> label:string -> vertex option
(** First vertex with the given label, if any. *)

(** {1 Mutation (functional)} *)

val set_service : t -> vertex_id -> service -> t

val update_service : t -> vertex_id -> (service -> service) -> t

val set_edge_params :
  ?delta:float -> ?alpha:float -> ?beta:float -> ?bandwidth:float option ->
  src:vertex_id -> dst:vertex_id -> t -> t
(** Replace selected parameters of an existing edge. Raises
    [Invalid_argument] if the edge does not exist. *)

val remove_edge : src:vertex_id -> dst:vertex_id -> t -> t
(** Raises [Invalid_argument] if the edge does not exist. *)

val scale_out_split : t -> vertex_id -> float list -> t
(** [scale_out_split g v fractions] reassigns the δ/α/β of [v]'s
    out-edges (in {!out_edges} order) so that they keep their current
    total but are split according to [fractions] (which are normalized
    first). Each edge's α and β are rescaled proportionally to its new
    δ, preserving the per-edge medium mix. Raises [Invalid_argument] on
    a length mismatch, or — naming the vertex — on negative, NaN,
    infinite, or all-zero fractions (an all-zero list would otherwise
    divide by zero and poison every out-edge with NaN δ/α/β). *)

(** {1 Analysis} *)

val topological_order : t -> vertex_id list option
(** [None] when the graph has a cycle. *)

val is_dag : t -> bool

val path_limit : int
(** 10_000: how many ingress→egress paths {!paths} enumerates before
    raising, and {!Compiled.routes} keeps before flagging the rest. *)

exception Path_limit_exceeded of int
(** Raised by {!paths} when a graph has more ingress→egress paths than
    the enumeration limit; carries that limit. *)

val paths : ?limit:int -> t -> vertex_id list list
(** All ingress→egress paths as vertex-id sequences, in a deterministic
    order. Raises {!Path_limit_exceeded} if more than [limit] (default
    {!path_limit}) paths exist — execution graphs are small by
    construction. Callers that would rather degrade than fail use
    {!paths_capped}. *)

val paths_capped :
  ?limit:int -> t -> vertex_id list list * [ `Complete | `Truncated ]
(** Like {!paths} but total: on a path explosion it returns the first
    [limit] paths in enumeration order tagged [`Truncated] instead of
    raising — how {!Latency} (and the explain engine on top of it)
    degrades to a top-K path approximation on combinatorial graphs. *)

val validate : t -> (unit, string list) result
(** Structural checks: at least one ingress and one egress, acyclicity,
    and every IP vertex reachable from an ingress and co-reachable to an
    egress. Note that an edge's [alpha + beta] may legitimately exceed
    its [delta]: §4.7 folds an IP's internal interface/memory accesses
    (data-structure traversals, oversized accelerator fetches) into its
    edge's medium-usage parameters. *)

(** {1 Compiled graph}

    The dense form every model evaluation and the simulator read: a
    graph's vertex and edge parameters as arrays, its adjacency as CSR
    rows, and the totals the Eqs need per vertex. Vertex [v] is index
    [v] (ids are dense); edge [e] is the [e]-th edge in insertion order,
    and every CSR row lists its edges in insertion order. That order is
    what keeps evaluations on the compiled form bit-identical to a walk
    of the lists: each sum adds the same terms in the same order. *)

module Compiled : sig
  type graph

  type routes = private {
    paths : vertex_id array array;
        (** ingress→egress paths in {!paths} order, at most
            {!path_limit} of them *)
    via : int array array;
        (** per path, the edge index of each hop ([via.(i).(k)] joins
            [paths.(i).(k)] to [paths.(i).(k+1)]) *)
    on_path : bool array;  (** per vertex: on some kept path *)
    truncated : bool;  (** more paths exist than were kept *)
  }

  type t = private {
    kind : kind array;
    label : string array;
    throughput : float array;
    parallelism : int array;
    queue_capacity : int array;
    overhead : float array;
    accel : float array;
    partition : float array;
    src : vertex_id array;
    dst : vertex_id array;
    delta : float array;
    alpha : float array;
    beta : float array;
    bandwidth : float option array;
    out_start : int array;
        (** CSR: the out-edges of [v] are
            [out_edges.(out_start.(v)) .. out_edges.(out_start.(v+1) - 1)] *)
    out_edges : int array;
    in_start : int array;  (** CSR of in-edges, as [out_start] *)
    in_edges : int array;
    inflow : float array;
        (** Σδ over in-edges; 1 for an ingress (all of W enters there) *)
    out_total : float array;  (** Σδ over out-edges *)
    order : vertex_id array option;
        (** {!topological_order}; [None] on a cycle *)
    routes : routes Lazy.t;  (** see {!routes} *)
  }
  (** The arrays belong to the value: read them, and change parameters
      only through {!update_service}/{!set_bandwidth}/{!scale_out_split}
      on a {!copy}. *)

  val compile : graph -> t
  (** O(V+E), no validation; the paths are enumerated on first
      {!routes}. *)

  val checked : who:string -> graph -> t
  (** {!compile} a graph that passes {!validate}; raises
      [Invalid_argument] prefixed by [who] with {!validate}'s errors,
      in order, otherwise. *)

  val vertex_count : t -> int
  val edge_count : t -> int
  val in_degree : t -> vertex_id -> int

  val routes : t -> routes
  (** The capped ingress→egress paths, enumerated once per compiled
      graph and shared by its {!copy}s. Force it before handing copies
      to other domains: forcing one lazy value from two domains at once
      is an error. *)

  val truncated : t -> bool
  (** [(routes c).truncated]: the graph has more than {!path_limit}
      paths, so a latency evaluation averages over the first ones
      only. *)

  val reach : t -> float array * float array
  (** Probability that a packet's walk crosses each vertex and each
      edge under δ-proportional routing (each ingress entered with
      equal share), by a pass in topological order. Raises
      [Invalid_argument] on a cycle. *)

  val copy : t -> t
  (** Fresh parameter arrays; the shape and the routes are shared. *)

  val restore : t -> from:t -> unit
  (** Overwrite [c]'s parameters with those of [from], a graph of the
      same shape (the one [c] was copied from). *)

  val service : t -> vertex_id -> service
  val update_service : t -> vertex_id -> (service -> service) -> unit

  val set_bandwidth : t -> int -> float option -> unit
  (** Replace edge [e]'s dedicated-link bandwidth. *)

  val scale_out_split : t -> vertex_id -> float list -> unit
  (** {!Graph.scale_out_split} in place, with its arithmetic and its
      errors, and the vertex's out-total and its successors' inflows
      recomputed. *)
end
with type graph := t

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable dump (used by the CLI's [validate]). *)
