(** VeilS-ENC — shielded program execution (§6.2).

    Provides an SGX-like in-process enclave abstraction on top of
    Dom_ENC: the OS lays out the enclave region (untrusted), this
    service verifies the layout invariants (one-to-one virtual/physical
    mapping, disjoint physical pages across enclaves), clones the page
    tables into protected memory, revokes the OS's access with
    RMPADJUST, and measures the region for remote attestation.  At
    runtime it owns the enclave's page tables: demand paging (encrypt +
    integrity hash + freshness on evict, verify + decrypt on restore)
    and all enclave-region permission changes go through it. *)

type t
type enclave

type stats = {
  mutable created : int;
  mutable destroyed : int;
  mutable rejected : int;  (** invariant-scan failures *)
  mutable entries : int;
  mutable exits : int;
  mutable evictions : int;
  mutable restores : int;
}

val install : Monitor.t -> t
val stats : t -> stats
val monitor : t -> Monitor.t

val degraded : t -> bool
(** True once a persistent (retry-exhausted) RMPADJUST failure left a
    destroy/evict/restore partially applied.  The affected request got
    an explicit [Resp_error] rather than crashing the service; mirrored
    by the ["encsvc.degraded"] registry gauge. *)

val find : t -> int -> enclave option
val enclave_id : enclave -> int
val measurement : enclave -> bytes
val pt_root : enclave -> Sevsnp.Types.gpfn
val desc : enclave -> Guest_kernel.Enclave_desc.t
val is_destroyed : enclave -> bool

val resident_frame : enclave -> Sevsnp.Types.va -> Sevsnp.Types.gpfn option
(** Current frame backing an enclave page ([None] when evicted). *)

(* Runtime paths (used by the enclave SDK) *)

val enter : t -> Sevsnp.Vcpu.t -> enclave -> unit
(** Dom_UNT → Dom_ENC through the user-mapped GHCB.  The OS must have
    loaded the enclave's GHCB into the current instance's GHCB MSR
    (§6.2); this helper performs that scheduling step too. *)

val exit_enclave : t -> Sevsnp.Vcpu.t -> enclave -> restore_ghcb:Sevsnp.Types.gpa -> unit
(** Dom_ENC → Dom_UNT; restores the kernel GHCB MSR on the way out. *)

val schedule_on : t -> Sevsnp.Vcpu.t -> enclave -> target_vcpu:Sevsnp.Vcpu.t -> (unit, string) result
(** §10 multi-threading: synchronize [target_vcpu]'s Dom_ENC instance
    (entry point, protected tables, user GHCB) with the enclave so a
    thread can run there.  The OS scheduler requests this through
    VeilMon; the calling context must be a trusted domain. *)

val share_region :
  t ->
  Sevsnp.Vcpu.t ->
  owner:enclave ->
  peer:enclave ->
  va:Sevsnp.Types.va ->
  npages:int ->
  (unit, string) result
(** §10's alternative to Chancel: map [npages] of [owner]'s pages
    (starting at [va]) into [peer]'s protected tables, so two
    mutually-trusting enclaves share memory without SFI.  Requested
    from Dom_ENC through the enclave GHCB (like {!change_perms});
    both enclaves stay inaccessible to the OS. *)

val shared_with : t -> enclave -> (int * Sevsnp.Types.va * int) list
(** Regions shared into this enclave: (owner id, va, npages). *)

val change_perms :
  t -> Sevsnp.Vcpu.t -> enclave -> va:Sevsnp.Types.va -> npages:int -> prot:Guest_kernel.Ktypes.prot ->
  (unit, string) result
(** Enclave-initiated mprotect of its own region: Dom_ENC → Dom_SEC
    through the enclave GHCB, protected-table update, and back. *)

val read_mem :
  ?leg:Sevsnp.Cycles.leg -> t -> Sevsnp.Vcpu.t -> enclave -> va:Sevsnp.Types.va -> len:int -> bytes
(** Access enclave memory through the *protected* page tables with the
    current VCPU context's privileges — raises on permission
    violations and {!Sevsnp.Platform.Guest_page_fault} on evicted
    pages. *)

val write_mem :
  ?leg:Sevsnp.Cycles.leg -> t -> Sevsnp.Vcpu.t -> enclave -> va:Sevsnp.Types.va -> bytes -> unit

val read_mem_into :
  ?leg:Sevsnp.Cycles.leg ->
  t -> Sevsnp.Vcpu.t -> enclave -> va:Sevsnp.Types.va -> bytes -> int -> int -> unit
(** {!read_mem} into a caller-provided buffer — the SDK's ocall arena
    path uses this with a preallocated scratch buffer so crossing the
    arena allocates nothing per call. *)

val write_mem_sub :
  ?leg:Sevsnp.Cycles.leg ->
  t -> Sevsnp.Vcpu.t -> enclave -> va:Sevsnp.Types.va -> bytes -> int -> int -> unit
(** {!write_mem} of a slice of the given buffer. *)

val set_measurement : t -> enclave -> bytes -> unit
(** Trusted-side override used by enclave migration: a migrated
    enclave keeps its *original* launch measurement (its current page
    contents legitimately differ from the initial image). *)

val measure_expected :
  binary:bytes -> npages_heap:int -> npages_stack:int -> base_va:Sevsnp.Types.va -> bytes
(** What a remote user computes locally to check an enclave
    measurement (same construction as the service's). *)
