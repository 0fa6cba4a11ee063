type request =
  | Req_none
  | Req_io of { write : bool; port : int; len : int }
  | Req_domain_switch of { target_vmpl : Types.vmpl }
  | Req_create_vcpu of { vmsa_gpfn : Types.gpfn; target_vmpl : Types.vmpl }
  | Req_page_state_change of { gpfn : Types.gpfn; to_shared : bool }
  | Req_set_switch_policy of { ghcb_gpfn : Types.gpfn; allowed : (Types.vmpl * Types.vmpl) list }
  | Req_relay_interrupts_to of Types.vmpl
  | Req_halt of string

let domain_switch_request = function
  | Types.Vmpl0 -> Req_domain_switch { target_vmpl = Types.Vmpl0 }
  | Types.Vmpl1 -> Req_domain_switch { target_vmpl = Types.Vmpl1 }
  | Types.Vmpl2 -> Req_domain_switch { target_vmpl = Types.Vmpl2 }
  | Types.Vmpl3 -> Req_domain_switch { target_vmpl = Types.Vmpl3 }

type t = {
  mutable request : request;
  mutable exit_info : int;
  mutable payload : bytes;
  mutable response : int;
}

let create () = { request = Req_none; exit_info = 0; payload = Bytes.empty; response = 0 }

let clear t =
  t.request <- Req_none;
  t.exit_info <- 0;
  t.payload <- Bytes.empty;
  t.response <- 0
