(** Veil-Prof — per-VCPU hierarchical cycle-attribution profiler.

    Frames are opened ({!push}) and closed ({!pop}) around simulator
    operations, timed on the simulated cycle clock.  Closing a frame
    computes its *total* cycles (pop ts − push ts) and *self* cycles
    (total minus cycles attributed to nested frames and {!leaf}
    charges), and credits self into

    - a machine-wide ledger keyed by [(vmpl, bucket)], and
    - a folded-path table keyed by the ancestry string
      (["vmpl0;os_call;domain_switch;vmgexit"]), renderable as
      flamegraph folded-stack text via {!Folded.render}.

    Leaves ({!leaf}) attribute a known duration under the current stack
    without opening a frame.  Their one caller is [Sevsnp.Vcpu.charge],
    which credits every named cost leg (VMGEXIT, VMSA save/restore,
    GHCB protocol, PVALIDATE, ...) and any work charged with no frame
    open, so the ledger sums to the VCPU cycle counters.

    The profiler also carries one *causal trace id* per VCPU
    ({!mint}/{!set_id}/{!id}).  Ids are minted at request origins
    (syscall entry, enclave ecall, IDCB request) and, because the slot
    is per-VCPU rather than per-privilege-level, survive VMGEXIT →
    hypervisor relay → VMENTER world switches: every layer a request
    crosses tags its events with the same id.

    Disabled (the default), every mutating entry point returns after a
    single flag test and allocates nothing — the same contract as
    {!Trace}, enforced by the bench alloc-check. *)

type t

val create : ?max_depth:int -> unit -> t
(** Fresh disabled profiler; per-VCPU stacks hold up to [max_depth]
    (default 64, clamped to >= 4) open frames — deeper pushes are
    counted and dropped, and their pops matched. *)

val set_enabled : t -> bool -> unit
val enabled : t -> bool

val reset : t -> unit
(** Drop all attribution, open frames, and causal ids (the enabled flag
    is unchanged); the id generator restarts at 1. *)

val push : t -> vcpu:int -> vmpl:int -> ts:int -> string -> unit
(** Open a frame named after the operation it brackets.  No-op while
    disabled; guard hot paths with {!enabled}. *)

val pop : t -> vcpu:int -> ts:int -> unit
(** Close the most recent open frame on [vcpu] and credit its self
    cycles.  A pop with no open frame is tolerated (the push may
    predate enabling). *)

val leaf : t -> vcpu:int -> vmpl:int -> dur:int -> string -> unit
(** Attribute [dur] self cycles to a leaf bucket under the current
    stack, without opening a frame.  The enclosing frame's self time is
    reduced accordingly. *)

val mint : t -> int
(** Fresh nonzero causal id (monotonic from 1). *)

val set_id : t -> vcpu:int -> int -> unit
(** Set the causal id riding [vcpu]; 0 clears it.  No-op while
    disabled. *)

val id : t -> vcpu:int -> int
(** Causal id riding [vcpu]; 0 while disabled or unset.  Never
    allocates. *)

val open_frames : t -> vcpu:int -> int
(** Frames currently open on [vcpu] (unclosed work-in-progress is not
    yet in the ledger). *)

val ledger : t -> ((int * string) * (int * int)) list
(** [((vmpl, bucket), (self_cycles, hits))], sorted. *)

val paths : t -> (string * int) list
(** [(folded_path, self_cycles)], sorted; paths root at the recorded
    frame's own VMPL segment so per-(VMPL, bucket) folded totals equal
    the {!ledger}. *)

val bucket_self : t -> string -> int
(** Total self cycles for [bucket] across all VMPLs. *)

val bucket_hits : t -> string -> int

val total_self : t -> int
(** Sum of self cycles over the whole ledger. *)
