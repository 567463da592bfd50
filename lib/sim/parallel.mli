(** Parallel simulation driver (OCaml 5 domains).

    {!Netsim.execute} is the repo's slow path — exactly the packet-level
    simulator the paper's pitch is measured against — and replicated
    runs, figure sweeps, and optimizer grids execute many mutually
    independent simulations. This module fans them out over the domain
    pool of {!Lognic_numerics.Parallel}.

    {b Determinism guarantee}: every simulation derives its randomness
    from an explicit per-run seed and touches no shared mutable state,
    so all entry points return results {e bit-identical} to their
    sequential counterparts at every [jobs] count — parallelism changes
    wall-clock time only. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving, exception-propagating parallel [List.map]; see
    {!Lognic_numerics.Parallel.map}. [jobs] defaults to the global
    default (set via [--jobs] in the CLI and bench). *)

val sweep : ?jobs:int -> f:('a -> 'b) -> 'a list -> ('a * 'b) list
(** [sweep ~f points] evaluates a parameter grid, returning
    [(point, result)] pairs in grid order. *)

val execute_replicated : ?jobs:int -> ?runs:int -> Netsim.Run.t -> Netsim.replicated
(** Drop-in parallel {!Netsim.execute_replicated}: identical derived
    seeds ([config.seed + i], via {!Netsim.replication_specs}) and the
    identical measurement fold ({!Netsim.replicated_of_measurements},
    including the per-entity stats and across-run resilience), hence
    bit-identical results for the same spec at any [jobs] — fault plans
    included. Raises [Invalid_argument] when [runs < 2]. *)
