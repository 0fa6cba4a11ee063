(** The (untrusted) host hypervisor.

    Models the KVM side of the paper's prototype (§7): it keeps one
    VMSA per (VCPU, domain), handles the domain-switch hypercall, and
    relays external interrupts according to the policy VMPL-0 software
    installs.  It also exposes the adversarial controls used in the
    security analysis (§8.2): tampering with VMSAs and refusing to
    relay interrupts during enclave execution.

    The hypervisor is *outside* the CVM trust boundary: every guest
    memory access it makes goes through {!Sevsnp.Platform.host_read} /
    [host_write] and is therefore limited to [Shared] pages. *)

type t

type stats = {
  mutable domain_switches : int;
  mutable io_requests : int;
  mutable io_bytes : int;
  mutable interrupts_injected : int;
  mutable page_state_changes : int;
}
(** Snapshot of the hypervisor-side counters.  The live values are
    registered in the platform's {!Obs.Metrics} registry under
    ["hv.*"]; {!stats} reads them out into this record. *)

val create : Sevsnp.Platform.t -> t
(** Attach to the platform (installs the VMGEXIT handler). *)

val platform : t -> Sevsnp.Platform.t
val stats : t -> stats

val launch_cvm :
  t -> entry_name:string -> boot_image:(Sevsnp.Types.gpa * bytes) list -> Sevsnp.Vcpu.t
(** Measured launch: load the boot image, create the boot VCPU with a
    VMPL-0 instance (hypervisor-created, as §3 requires) and enter it.
    The boot VMSA occupies the highest guest frame. *)

val vmsa_for : t -> vcpu_id:int -> vmpl:Sevsnp.Types.vmpl -> Sevsnp.Vmsa.t option
(** The registered instance for a (VCPU, domain), if any. *)

val inject_interrupt : t -> Sevsnp.Vcpu.t -> unit
(** External interrupt during guest execution.  If the interrupted
    instance is not the relay target, the hypervisor re-enters the
    relay-target instance first (§6.2); with {!set_refuse_interrupt_relay}
    it instead forces handling in the interrupted domain, which halts
    the CVM when that domain cannot execute the kernel's handler.
    A second injection on the same VCPU before the guest's handler
    returns (acks) is coalesced, like a fixed-vector APIC — counted
    under ["hv.relay.coalesced"].  Refused relays count under
    ["hv.relay.refused"]; an armed chaos plan can additionally drop,
    duplicate, reorder (["hv.relay.dropped"], ["chaos.relay_dup"],
    ["chaos.relay_reorder"]) or refuse individual relays.  Every
    drop/refuse/coalesce emits an instant trace event. *)

val set_interrupt_handler : t -> (Sevsnp.Vcpu.t -> unit) -> unit
(** Guest kernel's interrupt service routine (simulation hook; runs
    after the hypervisor has re-entered the relay-target domain). *)

val kernel_handler_frame : t -> Sevsnp.Types.gpfn -> unit
(** Tell the simulated interrupt path which frame holds the kernel's
    handler text (used to evaluate the refuse-relay attack). *)

(** Deterministic VCPU interleaving (Veil-SMP).  The host scheduler
    picks which runnable VCPU gets the next timeslice; same policy +
    same VCPU count (+ same seed, for [Seeded]) produce the identical
    schedule, recorded step-by-step in a journal for byte-for-byte
    replay comparison. *)
module Interleave : sig
  type policy =
    | Round_robin  (** cursor walks 0..n-1, skipping idle VCPUs *)
    | Seeded of int
        (** the seed's [Veil_crypto.Rng.Interleave] stream picks the
            start VCPU each step; the scan to the first runnable one
            from there is deterministic too *)
    | Scripted of string
        (** byte-for-byte replay of a recorded journal: step [i] takes
            the VCPU named by character [i].  Raises
            {!Journal_exhausted} when the schedule needs more steps
            than the journal provides (a replay must never silently
            truncate), and {!Journal_mismatch} when the scripted
            choice is out of range or not runnable (the journal was
            recorded against a different guest). *)
    | Guided of (int list -> int)
        (** Veil-Explore branch points: at each decision the chooser
            receives the full runnable set (ascending VCPU ids,
            non-empty) and returns the VCPU to step.  Returning an id
            outside the set raises [Invalid_argument]. *)

  exception Journal_exhausted of { journal : string; steps : int }
  (** [steps] is the 1-based schedule step that found the journal
      empty. *)

  exception Journal_mismatch of { journal : string; step : int; chosen : int }
  (** The journal prescribed [chosen] at 0-based [step] but that VCPU
      does not exist or is not runnable. *)

  type sched

  val create : ?policy:policy -> nvcpus:int -> unit -> sched
  (** Default policy is [Round_robin].  [Scripted]/[Guided] schedules
      support at most 10 VCPUs (one journal character per step). *)

  val next : sched -> runnable:(int -> bool) -> int option
  (** Pick the next VCPU to step; [None] when no VCPU is runnable.
      Appends the choice to the journal. *)

  val journal : sched -> string
  (** One digit per step: the chosen VCPU id. *)

  val steps : sched -> int
end

(* Adversarial controls (§8) *)

val set_refuse_interrupt_relay : t -> bool -> unit

val try_tamper_vmsa : t -> vcpu_id:int -> vmpl:Sevsnp.Types.vmpl -> (unit, string) result
(** Attempt to overwrite a registered VMSA's saved [rip] through host
    memory access.  Fails on SNP because the VMSA lives in a private
    guest frame. *)

val try_read_guest : t -> Sevsnp.Types.gpa -> int -> (bytes, string) result
