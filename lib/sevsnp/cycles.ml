type bucket = Compute | Switch | Copy | Kernel | Monitor | Crypto | Io | Other

let bucket_index = function
  | Compute -> 0
  | Switch -> 1
  | Copy -> 2
  | Kernel -> 3
  | Monitor -> 4
  | Crypto -> 5
  | Io -> 6
  | Other -> 7

let bucket_name = function
  | Compute -> "compute"
  | Switch -> "switch"
  | Copy -> "copy"
  | Kernel -> "kernel"
  | Monitor -> "monitor"
  | Crypto -> "crypto"
  | Io -> "io"
  | Other -> "other"

type leg =
  | Compute | Switch | Copy | Kernel | Monitor | Crypto | Io | Other
  | Vmgexit | Vmsa_save | Ghcb_protocol | Hv_relay | Vmenter | Vmsa_restore
  | Rmpadjust | Rmpadjust_monitor | Pvalidate | Pvalidate_monitor | Pvalidate_kernel
  | Npf | Kaudit_format

let bucket_of_leg : leg -> bucket = function
  | Compute -> Compute
  | Switch | Vmgexit | Vmsa_save | Ghcb_protocol | Hv_relay | Vmenter | Vmsa_restore | Npf -> Switch
  | Copy -> Copy
  | Kernel | Pvalidate_kernel | Kaudit_format -> Kernel
  | Monitor | Rmpadjust_monitor | Pvalidate_monitor -> Monitor
  | Crypto -> Crypto
  | Io -> Io
  | Other | Rmpadjust | Pvalidate -> Other

let is_work = function
  | Compute | Switch | Copy | Kernel | Monitor | Crypto | Io | Other -> true
  | _ -> false

let leg_name = function
  | Vmgexit -> "vmgexit"
  | Vmsa_save -> "vmsa_save"
  | Ghcb_protocol -> "ghcb_protocol"
  | Hv_relay -> "hv_relay"
  | Vmenter -> "vmenter"
  | Vmsa_restore -> "vmsa_restore"
  | Rmpadjust | Rmpadjust_monitor -> "rmpadjust"
  | Pvalidate | Pvalidate_monitor | Pvalidate_kernel -> "pvalidate"
  | Npf -> "npf"
  | Kaudit_format -> "kaudit_format"
  | work -> bucket_name (bucket_of_leg work)

type counter = { mutable total : int; by : int array }

let create_counter () = { total = 0; by = Array.make 8 0 }

let charge c leg n =
  assert (n >= 0);
  let i = bucket_index (bucket_of_leg leg) in
  c.total <- c.total + n;
  c.by.(i) <- c.by.(i) + n

let total c = c.total
let read_bucket c b = c.by.(bucket_index b)

let reset c =
  c.total <- 0;
  Array.fill c.by 0 8 0

let freq_hz = 2_400_000_000

let seconds_of_cycles n = float_of_int n /. float_of_int freq_hz

(* Calibration anchors (§9.1): VMCALL round trip = 1100; full SNP
   domain switch = 7135, dominated by VMSA save/restore. *)
let vmcall_roundtrip = 1100

let switch_cost = function
  | Vmgexit | Vmenter -> 550
  | Vmsa_save | Vmsa_restore -> 2450
  | Ghcb_protocol -> 200
  | Hv_relay -> 935
  | leg -> invalid_arg ("Cycles.switch_cost: not a world-switch leg: " ^ leg_name leg)

(* exit: base + state save + GHCB; host logic; enter: base + restore *)
let domain_switch_legs = [ Vmgexit; Vmsa_save; Ghcb_protocol; Hv_relay; Vmenter; Vmsa_restore ]

let domain_switch = List.fold_left (fun acc leg -> acc + switch_cost leg) 0 domain_switch_legs

(* RMPADJUST: instruction plus a one-time touch of the target frame
   (subsequent adjusts of the same frame hit the cache).  Veil's boot
   sweep issues two adjusts per frame (Dom_UNT grant + Dom_SEC read
   grant): 2*1200 + 4000 = 6400 cycles/page; a 2 GB guest has 524288
   pages, so the sweep costs ~3.36e9 cycles = 1.40 s @ 2.4 GHz — ~70%
   of the measured ~2 s initialization increase (§9.1). *)
let rmpadjust_insn = 1200
let rmpadjust_page_touch = 4000
let pvalidate = 800
let npf_exit = 2200
let interrupt_delivery = 1500

(* TLB shootdown: the initiating VCPU always pays the local INVLPG
   sweep; each *remote* VCPU costs the initiator one IPI (ICR write +
   delivery) plus the spin waiting for that VCPU's acknowledgement,
   and costs the remote VCPU the flush-handler ISR.  On one VCPU the
   distributed protocol degenerates to exactly [tlb_local_flush] —
   the flat constant the kernel charged before Veil-SMP. *)
let tlb_local_flush = 500
let ipi_send = 800
let ipi_ack = 700
let ipi_handler = 1200

let syscall_base = 1800

let copy_cost n = 3 * n
(* CVM kernel copies run through SWIOTLB bounce buffers and C-bit
   aware mappings: ~3 cycles/byte. *)

let deep_copy_cost n = 12 * n
(* Spec-driven deep copy across the enclave boundary (allocation,
   pointer chasing, bounds checks): ~12 cycles/byte — what Fig. 5's
   lighttpd redirect share implies. *)

(* Building one kaudit SYSCALL record (field formatting, context
   capture); calibrated against Fig. 6's Kaudit bars. *)
let kaudit_format = 11_000

(* One Veil-Pulse epoch capture: a monitor-resident scan of the whole
   metrics registry into a preallocated snapshot plus the amortized
   digest/chain fold — no domain switch, no copies out of VMPL0. *)
let pulse_sample = 600

let hash_cost n = 12 * n
let cipher_cost n = 4 * n
let io_cost n = 9000 + (n / 2) (* virtio request + DMA-ish per-byte *)

let native_cvm_boot = 37_000_000_000
