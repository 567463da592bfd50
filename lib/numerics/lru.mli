(** A bounded least-recently-used cache (hashtable + intrusive doubly
    linked recency list), used to memoize expensive pure evaluations —
    e.g. the optimizer's model reports keyed by canonicalized knob
    assignments. Not thread-safe: guard with a mutex when shared
    across domains. *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val find_opt : ('k, 'v) t -> 'k -> 'v option
(** Marks the entry most-recently used on a hit. Hits and misses are
    counted (see {!hits}/{!misses}). *)

val peek : ('k, 'v) t -> 'k -> 'v option
(** Like {!find_opt} but read-only: neither the recency order nor the
    hit/miss counts change, so concurrent [peek]s of a cache nobody is
    writing are safe. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Inserts (or refreshes) a binding, evicting the least-recently-used
    entry when over capacity. *)

val length : ('k, 'v) t -> int
val capacity : ('k, 'v) t -> int
val hits : ('k, 'v) t -> int
val misses : ('k, 'v) t -> int
