(** Shared plumbing for the case-study modules: every sweep in this
    library builds its simulator config and prints its result table the
    same way, so the conventions live here once.

    {b Entry-point conventions} (every sweep in [lognic.apps] follows
    them): [?duration] is the simulated horizon per point in seconds,
    [?seed] the base rng seed (points at index [i] derive [seed + i] so
    replications stay independent yet reproducible), and [?jobs] the
    domain count handed to {!Lognic_sim.Parallel.map} — results are
    bit-identical at every value. *)

val sim_config :
  ?seed:int -> ?warmup_fraction:float -> float -> Lognic_sim.Netsim.config
(** [sim_config ?seed ?warmup_fraction duration] is
    {!Lognic_sim.Netsim.Config.default} with the given horizon, a warmup
    of [warmup_fraction] (default 0.1) of it, and the seed (default:
    the stock config's). *)

val header : Format.formatter -> string -> string list -> unit
(** [header ppf title columns] prints the standard study table header:
    a [== title ==] banner followed by the column names. *)

val model_vs_measured :
  Format.formatter -> x:string -> model:float -> measured:float -> unit
(** One standard result row: the swept point's label, the analytic
    value, the simulated value, and their relative gap in percent. *)
