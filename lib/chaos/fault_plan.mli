(** Veil-Chaos fault plans (ISSUE 4).

    A fault plan is a deterministic, seed-driven schedule of
    hypervisor-side misbehaviours: every injection site in the
    simulator asks the plan [fire plan site] at the moment it *could*
    misbehave, and the plan answers from its seed's
    [Veil_crypto.Rng.Fault_plan] stream and per-site probability/count
    schedules.  There is no wall-clock anywhere — replaying the same
    seed against the same workload reproduces the identical injection
    journal, which is what lets a failing chaos trial be debugged from
    nothing but the seed printed on failure.

    The module depends only on [veil_crypto] so the lowest layers
    (sevsnp, hypervisor) can hold a plan without cycles.  Hot-path
    discipline: when a site's probability is zero, [fire] returns
    [false] without consuming PRNG state or allocating, so an armed
    all-zero plan is indistinguishable (cycle- and allocation-wise)
    from no plan. *)

type site =
  | Relay_drop      (** hypervisor silently drops an interrupt relay *)
  | Relay_dup       (** delivers the same interrupt twice *)
  | Relay_reorder   (** holds an interrupt back, delivers it after the next one *)
  | Relay_refuse    (** refuses to relay (one-shot [set_refuse_interrupt_relay]) *)
  | Vmgexit_delay   (** services the exit only after extra scheduling delay *)
  | Vmgexit_refuse  (** declines to service a GHCB request (out-of-protocol response) *)
  | Spurious_exit   (** charges the guest a VM-exit it never asked for *)
  | Rmpadjust_fail  (** RMPADJUST returns transient FAIL_INUSE *)
  | Pvalidate_fail  (** PVALIDATE returns transient FAIL_INUSE *)
  | Spurious_npf    (** a resumable nested-page-fault exit (re-executed) *)
  | Ghcb_corrupt    (** scribbles hypervisor-writable GHCB fields after service *)
  | Shared_bitflip  (** flips one bit in a Shared page (never a private one) *)
  | Ring_slot_corrupt
      (** scribbles a submitted Veil-Ring slot between submit and
          drain (the ring lives in OS memory — TOCTOU); the monitor
          must reject the slot without poisoning the rest of the batch *)
  | Pulse_export_tamper
      (** corrupts or drops one exported Veil-Pulse telemetry interval
          before the verifier sees it; chain verification must flag
          the exact interval — tampering is detected, never silently
          accepted as clean numbers *)

type t

val all_sites : site list
val nsites : int
val site_name : site -> string
val site_of_name : string -> site option

val create : ?max_steps:int -> ?journal_cap:int -> seed:int -> unit -> t
(** A fresh plan with every site probability 0 (fires nothing).
    [max_steps] (default 1e9) bounds {!step} — the watchdog budget. *)

val seed : t -> int

val set_site : t -> site -> ?max_hits:int -> ?skip:int -> prob:float -> unit -> unit
(** Arm [site]: each [fire] draws true with probability [prob]
    (clamped to [0,1]).  [max_hits] caps total injections at the site
    (default unlimited); [skip] ignores the first [skip] eligible
    draws (lets a plan target "the Nth rmpadjust", not just rates). *)

val fire : t -> site -> bool
(** Ask the plan whether to inject at [site] now.  Counts the hit and
    journals [(step, site)] when true.  Zero-probability sites return
    [false] with no PRNG draw and no allocation. *)

val site_enabled : t -> site -> bool
(** Whether [site] has a non-zero probability.  Lets injection points
    skip allocating setup work (e.g. a GHCB lookup) that only matters
    if the site can ever fire — keeps an armed all-zero plan exactly
    as cheap as a disarmed platform. *)

val draw : t -> int -> int
(** Uniform draw in [\[0, n)] for injection parameters (delay
    magnitude, which bit to flip, ...); [0] when [n <= 0].
    Deterministic given the call sequence. *)

val step : t -> bool
(** Advance the watchdog step counter (called once per VM-exit).
    Returns [false] once the budget [max_steps] is exhausted — the
    platform halts the CVM rather than let a protocol hang. *)

val steps : t -> int
val hits : t -> site -> int
val total_hits : t -> int
val draws : t -> site -> int

val journal : t -> (int * site) list
(** Injections in order: [(watchdog step when fired, site)].  Bounded
    by [journal_cap] (default 65536, oldest kept). *)

val journal_equal : t -> t -> bool
(** Replay-identity check: same journal, same per-site hit counts. *)
