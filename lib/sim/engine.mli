(** The discrete-event simulation core: a virtual clock plus an event
    queue of closures. Components schedule callbacks at absolute times;
    [run] drains the queue in time order. *)

type t

val create : unit -> t

val now : t -> float
(** Current virtual time in seconds; 0 before the first event. *)

val schedule : t -> at:float -> (unit -> unit) -> unit
(** Raises [Invalid_argument] when [at] is in the past. *)

val schedule_after : t -> delay:float -> (unit -> unit) -> unit
(** Convenience for [schedule ~at:(now t +. delay)]; [delay >= 0]. *)

val every : t -> interval:float -> until:float -> (float -> unit) -> unit
(** [every t ~interval ~until f] calls [f time] at each multiple of
    [interval] up to [until] (or once at [until] when [interval]
    exceeds it) — the one periodic scheduler behind series sampling and
    metrics ticks. *)

val run :
  ?until:float -> ?observer:(float -> unit) -> ?profile:Profile.t -> t -> unit
(** Processes events in order until the queue empties or virtual time
    would exceed [until] (remaining events stay queued, and the clock is
    left at [until]). [observer], when given, is called with each event's
    time just before it executes — in pop order, so a well-behaved queue
    feeds it non-decreasing times ({!Invariants.observe_event_time}).
    [profile], when given, charges queue operations (and observer
    callbacks) to their {!Profile} phases; event thunks run in the
    enclosing phase. The default path (neither given) runs the exact
    pre-observer loop and allocates nothing per event. *)

val pending : t -> int

val executed : t -> int
(** Events executed so far (cumulative across [run] calls; cleared by
    {!reset}) — the numerator of the events/sec headline bench. *)

val queue_resizes : t -> int
(** Calendar rebuilds in this engine's queue since {!create} (not
    cleared by {!reset}) — a diagnostic for the resize hysteresis; a
    steady-state workload should settle after a handful. *)

val reset : t -> unit
(** Back to a fresh engine — clock 0, nothing pending, counter 0 —
    while keeping the event queue's arrays for reuse, so replicated
    runs and optimizer sweeps stop reallocating per run. *)

