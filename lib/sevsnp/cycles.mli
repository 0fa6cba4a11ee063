(** Cycle-cost model and per-VCPU accounting.

    All simulator time is expressed in CPU cycles of the paper's
    evaluation machine (AMD EPYC 7313P, 2.4 GHz guest-visible clock).
    Constants are calibrated against the measurements the paper anchors
    (§9.1): a plain VMCALL round trip costs ~1100 cycles, a
    hypervisor-relayed SNP domain switch ~7135 cycles, and RMPADJUST
    over every guest page dominates the ~2 s Veil boot-time increase.
    See EXPERIMENTS.md for the calibration table. *)

(** Attribution bucket for a charge, used to decompose overheads
    (e.g. Fig. 5 separates syscall-redirect copies from enclave
    exits). *)
type bucket =
  | Compute  (** guest user/kernel computation *)
  | Switch  (** world switches: VMGEXIT/VMENTER, VMSA save/restore *)
  | Copy  (** cross-domain argument/result copies *)
  | Kernel  (** in-kernel syscall work *)
  | Monitor  (** VeilMon / protected-service processing *)
  | Crypto  (** hashing, encryption, signatures *)
  | Io  (** simulated device I/O *)
  | Other

val bucket_name : bucket -> string
(** Stable lower-case name ("compute", "switch", ...), used for trace
    attribution and metric labels. *)

(** What a charge pays for: one of the eight work buckets, or a named
    leg of the paper's §9.1 cost breakdown billed to a fixed bucket.
    RMPADJUST and PVALIDATE name their issuer, which picks the bucket:
    [_monitor] bills [Monitor], [Pvalidate_kernel] (a native VMPL-0
    kernel) bills [Kernel], the bare leg bills [Other].  Constant
    constructors only, so a charge never allocates. *)
type leg =
  | Compute | Switch | Copy | Kernel | Monitor | Crypto | Io | Other
  | Vmgexit | Vmsa_save | Ghcb_protocol | Hv_relay | Vmenter | Vmsa_restore
  | Rmpadjust | Rmpadjust_monitor | Pvalidate | Pvalidate_monitor | Pvalidate_kernel
  | Npf | Kaudit_format

val bucket_of_leg : leg -> bucket

val leg_name : leg -> string
(** Veil-Prof ledger name: the bucket name for a work leg, else the
    step ("vmgexit", "vmsa_save", ...; "rmpadjust"/"pvalidate" for
    every issuer). *)

val is_work : leg -> bool

type counter

val create_counter : unit -> counter

val charge : counter -> leg -> int -> unit
(** Bump [leg]'s bucket.  Guest code spends cycles through
    {!Vcpu.charge}, which also feeds the Veil-Prof ledger. *)

val total : counter -> int
val read_bucket : counter -> bucket -> int
val reset : counter -> unit

val freq_hz : int
(** Guest clock: 2.4 GHz. *)

val seconds_of_cycles : int -> float

(* Architectural event costs *)

val vmcall_roundtrip : int
(** Non-SNP VM exit + resume (the paper's 1100-cycle baseline). *)

val switch_cost : leg -> int
(** Calibrated cost of one world-switch leg: [Vmgexit] and [Vmenter]
    550, [Vmsa_save] and [Vmsa_restore] 2450, [Ghcb_protocol] 200,
    [Hv_relay] 935.  Raises [Invalid_argument] for any other leg. *)

val domain_switch_legs : leg list
(** The legs of one hypervisor-relayed domain switch, in order:
    vmgexit, vmsa_save, ghcb_protocol, hv_relay, vmenter,
    vmsa_restore. *)

val domain_switch : int
(** Full hypervisor-relayed domain switch, the sum of
    {!domain_switch_legs}; calibrated to 7135. *)

val rmpadjust_insn : int
(** RMPADJUST instruction proper. *)

val rmpadjust_page_touch : int
(** Memory access to the target page that RMPADJUST incurs (the §9.1
    boot-time analysis attributes >70% of boot cost to this). *)

val pvalidate : int
val npf_exit : int
val interrupt_delivery : int

val tlb_local_flush : int
(** Local INVLPG sweep the initiator of a TLB shootdown always pays
    (the pre-SMP flat shootdown constant: 500 cycles). *)

val ipi_send : int
(** ICR write + interrupt delivery for one shootdown IPI, charged to
    the initiating VCPU per remote target. *)

val ipi_ack : int
(** Spin-wait for one remote VCPU's shootdown acknowledgement, charged
    to the initiating VCPU per remote target. *)

val ipi_handler : int
(** Flush-handler ISR on the remote VCPU receiving a shootdown IPI,
    charged to that VCPU. *)

(* Software event costs *)

val syscall_base : int
(** Kernel entry/exit + dispatch for one system call. *)

val copy_cost : int -> int
(** [copy_cost n] cycles for an in-kernel copy of [n] bytes (bounce
    -buffered CVM I/O path). *)

val deep_copy_cost : int -> int
(** Spec-driven deep copy of [n] bytes across the enclave boundary. *)

val kaudit_format : int
(** Cost of formatting one kaudit record. *)

val pulse_sample : int
(** One Veil-Pulse epoch capture: registry scan into a preallocated
    snapshot + digest/chain fold, monitor-resident (no switch). *)

val hash_cost : int -> int
(** SHA-256 software cost over [n] bytes. *)

val cipher_cost : int -> int
(** ChaCha20 software cost over [n] bytes. *)

val io_cost : int -> int
(** Device I/O (virtio) cost for [n] bytes. *)

val native_cvm_boot : int
(** Whole native CVM boot (the paper's ~15 s baseline against which the
    +2 s Veil initialization is a 13% increase). *)
