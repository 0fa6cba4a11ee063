(** Guest-Hypervisor Communication Block.

    A GHCB is a [Shared] page through which a guest context passes the
    register subset and request data a hypercall needs (§3, Fig. 1).
    Because the page is shared, the hypervisor — and, for user-mapped
    GHCBs (§6.2), unprivileged guest code — can read and write it
    freely; nothing here is trusted. *)

(** The non-automatic exit reasons the simulated platform supports. *)
type request =
  | Req_none
  | Req_io of { write : bool; port : int; len : int }  (** virtio-style I/O *)
  | Req_domain_switch of { target_vmpl : Types.vmpl }
  | Req_create_vcpu of { vmsa_gpfn : Types.gpfn; target_vmpl : Types.vmpl }
      (** register + launch a new VCPU instance from a prepared VMSA *)
  | Req_page_state_change of { gpfn : Types.gpfn; to_shared : bool }
  | Req_set_switch_policy of { ghcb_gpfn : Types.gpfn; allowed : (Types.vmpl * Types.vmpl) list }
      (** VMPL-0 instructs the host: this GHCB may only request switches
          between the listed VMPL pairs (§6.2's errant-hypercall guard) *)
  | Req_relay_interrupts_to of Types.vmpl
      (** VMPL-0 instructs the host where to deliver external interrupts *)
  | Req_halt of string

val domain_switch_request : Types.vmpl -> request
(** [Req_domain_switch] for a target VMPL: one preallocated constant
    per VMPL, so posting a switch allocates nothing. *)

type t = {
  mutable request : request;
  mutable exit_info : int;
  mutable payload : bytes;  (** request-specific data (e.g. I/O buffer) *)
  mutable response : int;  (** host's scalar reply *)
}

val create : unit -> t

val clear : t -> unit
