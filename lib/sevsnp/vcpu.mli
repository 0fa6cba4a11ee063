(** A virtual CPU.

    The physical execution resource.  At any instant it runs at most
    one VMSA (one VCPU *instance* in the paper's terminology); Veil
    replicates instances across domains and the hypervisor re-enters
    the VCPU with a different instance's VMSA to switch domains. *)

type t = {
  id : int;
  mutable current : Vmsa.t option;  (** the instance currently on the CPU *)
  entered : Vmsa.t option array;
      (** per VMPL, the [Some] last installed as [current]: re-entering
          that instance reuses it instead of allocating *)
  counter : Cycles.counter;
  tlb : Tlb.t;  (** this CPU's translation cache, flushed on instance switches *)
  mutable exits : int;  (** total world exits taken *)
  mutable pending_interrupts : int;  (** queued external interrupts *)
  mutable last_exit_ts : int;
      (** cycle count when the last world exit began (before its switch
          charges) — lets the hypervisor emit whole domain-switch spans *)
  prof : Obs.Profiler.t;  (** the machine's Veil-Prof ledger, fed by {!charge} *)
}

val create : id:int -> tlb_gen:int ref -> prof:Obs.Profiler.t -> t
(** [tlb_gen] is the machine-wide TLB generation this CPU's TLB stamps
    against ({!Rmp.generation}); {!Platform} supplies it and [prof]. *)

val vmpl : t -> Types.vmpl
(** VMPL of the running instance.  Raises [Failure] if none. *)

val cpl : t -> Types.cpl
val current_vmsa : t -> Vmsa.t

val rdtsc : t -> int
(** Cycle count observed by guest software (the counter total). *)

val open_frame : t -> string -> unit
(** Open a Veil-Prof frame on this CPU, stamped with the running
    instance's VMPL and this CPU's cycle count.  No-op while the
    profiler is disarmed. *)

val close_frame : t -> unit
(** Close this CPU's innermost open frame and credit its self cycles. *)

val causal_id : t -> int
(** The causal trace id riding this CPU ({!Obs.Profiler.id}). *)

val charge : t -> Cycles.leg -> int -> unit
(** The one way to spend cycles: bump [leg]'s bucket and, while the
    profiler is armed, credit the ledger at the running instance's VMPL
    (-1 before any instance runs).  A named leg becomes a leaf under its
    name; a work leg stays in the open frame's self time, or becomes a
    leaf under its bucket name when no frame is open.  Once all frames
    close, the ledger sums to the charged cycles. *)
