module T = Sevsnp.Types
module P = Sevsnp.Platform
module K = Guest_kernel.Kernel

type outcome =
  | Blocked_npf of T.npf_info
  | Blocked_error of string
  | Blocked_sanitizer of string
  | Blocked_crypto of string
  | Breached of string

let outcome_to_string = function
  | Blocked_npf info -> Format.asprintf "blocked: CVM halted, %a" T.pp_npf info
  | Blocked_error e -> "blocked: " ^ e
  | Blocked_sanitizer e -> "blocked by sanitizer: " ^ e
  | Blocked_crypto e -> "blocked by attestation/crypto: " ^ e
  | Breached e -> "BREACHED: " ^ e

let is_blocked = function Breached _ -> false | _ -> true

type t = { name : string; description : string; exec : unit -> outcome }

let name t = t.name
let description t = t.description
let run t = t.exec ()

let attack_npages = 2048

let fresh () = Veil_core.Boot.boot_veil ~npages:attack_npages ~seed:31 ()

(* Convert raised platform faults into outcomes. *)
let catching f =
  try f () with
  | T.Npf info -> Blocked_npf info
  | T.Cvm_halted reason -> Blocked_error ("CVM halted: " ^ reason)

let mk name description exec = { name; description; exec = (fun () -> catching exec) }

(* --- helpers --- *)

let os_write_gpa (sys : Veil_core.Boot.veil_system) gpa =
  (* The compromised kernel's arbitrary-write gadget. *)
  P.write sys.Veil_core.Boot.platform sys.Veil_core.Boot.vcpu gpa (Bytes.of_string "pwned");
  Breached "wrote to protected memory without a fault"

let os_read_gpa (sys : Veil_core.Boot.veil_system) gpa =
  ignore (P.read sys.Veil_core.Boot.platform sys.Veil_core.Boot.vcpu gpa 16);
  Breached "read protected memory without a fault"

let make_enclave sys =
  let proc = K.spawn sys.Veil_core.Boot.kernel in
  let binary = Bytes.of_string (String.make 5000 'E') in
  match Enclave_sdk.Runtime.create sys ~binary proc with
  | Ok rt -> rt
  | Error e -> failwith ("attack setup: " ^ e)

(* --- Table 1: framework attacks --- *)

let atk_boot_image =
  mk "boot-malicious-image"
    "substitute the measured boot image and try to pass remote attestation (Table 1, boot-time)"
    (fun () ->
      (* Reference deployment the user expects... *)
      let good = Veil_core.Boot.boot_veil ~npages:attack_npages ~seed:31 () in
      let expected = Sevsnp.Attestation.launch_measurement good.Veil_core.Boot.platform.P.attestation in
      (* ...and the attacker's CVM booted from a different disk. *)
      let evil = Veil_core.Boot.boot_veil ~npages:attack_npages ~seed:666 () in
      let user =
        Veil_core.Channel.create (Veil_crypto.Rng.create 1)
          ~platform_public:(Sevsnp.Attestation.platform_public_key evil.Veil_core.Boot.platform.P.attestation)
          ~expected_launch:expected
      in
      match Veil_core.Channel.connect user evil.Veil_core.Boot.mon evil.Veil_core.Boot.vcpu with
      | Ok () -> Breached "remote user accepted a tampered boot image"
      | Error e -> Blocked_crypto (Veil_core.Channel.error_to_string e))

let atk_read_mon =
  mk "read-dom-mon" "compromised OS reads VeilMon heap memory (Table 1, domain enforcement)"
    (fun () ->
      let sys = fresh () in
      os_read_gpa sys (T.gpa_of_gpfn (sys.Veil_core.Boot.layout.Veil_core.Layout.mon_heap.Veil_core.Layout.lo + 2)))

let atk_write_sec =
  mk "write-dom-sec" "compromised OS overwrites the VeilS-LOG storage region (Table 1)"
    (fun () ->
      let sys = fresh () in
      os_write_gpa sys (T.gpa_of_gpfn sys.Veil_core.Boot.layout.Veil_core.Layout.log_region.Veil_core.Layout.lo))

let atk_rmpadjust_lift =
  mk "rmpadjust-lift"
    "compromised OS executes RMPADJUST to regain access to a protected frame (Table 1)"
    (fun () ->
      let sys = fresh () in
      match
        P.rmpadjust sys.Veil_core.Boot.platform sys.Veil_core.Boot.vcpu ~leg:Sevsnp.Cycles.Rmpadjust
          ~gpfn:sys.Veil_core.Boot.layout.Veil_core.Layout.mon_heap.Veil_core.Layout.lo ~target:T.Vmpl3 ~perms:Sevsnp.Perm.all
          ~vmsa:false
      with
      | Ok () -> Breached "RMPADJUST lifted VMPL restrictions from Dom_UNT"
      | Error e -> Blocked_error e)

let atk_rmpadjust_priv =
  mk "rmpadjust-privilege"
    "compromised OS tries RMPADJUST against a more privileged VMPL (architectural check)"
    (fun () ->
      let sys = fresh () in
      let own_frame = sys.Veil_core.Boot.layout.Veil_core.Layout.kernel_free.Veil_core.Layout.lo in
      match
        P.rmpadjust sys.Veil_core.Boot.platform sys.Veil_core.Boot.vcpu ~leg:Sevsnp.Cycles.Rmpadjust
          ~gpfn:own_frame ~target:T.Vmpl1 ~perms:Sevsnp.Perm.none ~vmsa:false
      with
      | Ok () -> Breached "Dom_UNT adjusted Dom_SEC permissions"
      | Error e -> Blocked_error e)

let atk_write_vmsa =
  mk "overwrite-registers"
    "compromised OS overwrites a trusted domain's saved register state (VMSA) (Table 1)"
    (fun () ->
      let sys = fresh () in
      let vmsa = Veil_core.Monitor.vmsa_of sys.Veil_core.Boot.mon ~vcpu_id:0 ~dom:Veil_core.Privdom.Sec in
      os_write_gpa sys (T.gpa_of_gpfn vmsa.Sevsnp.Vmsa.backing_gpfn))

let atk_write_protected_pt =
  mk "overwrite-page-tables"
    "compromised OS overwrites enclave page tables kept in Dom_SEC (Table 1 / §8.3 validation)"
    (fun () ->
      let sys = fresh () in
      let rt = make_enclave sys in
      let root = Veil_core.Encsvc.pt_root (Enclave_sdk.Runtime.enclave rt) in
      os_write_gpa sys (T.gpa_of_gpfn root))

let atk_spawn_vcpu_rmpadjust =
  mk "spawn-vcpu-vmsa-attr"
    "compromised OS marks its own frame as a VMSA to spawn a privileged VCPU (Table 1)"
    (fun () ->
      let sys = fresh () in
      let frame = K.alloc_frame sys.Veil_core.Boot.kernel in
      match
        P.rmpadjust sys.Veil_core.Boot.platform sys.Veil_core.Boot.vcpu ~leg:Sevsnp.Cycles.Rmpadjust
          ~gpfn:frame ~target:T.Vmpl0 ~perms:Sevsnp.Perm.all ~vmsa:true
      with
      | Ok () -> Breached "Dom_UNT created a VMSA"
      | Error e -> Blocked_error e)

let atk_spawn_vcpu_hypercall =
  mk "spawn-vcpu-hypercall"
    "compromised OS asks the hypervisor to run a forged VMSA at VMPL-0 (Table 1)"
    (fun () ->
      let sys = fresh () in
      let frame = K.alloc_frame sys.Veil_core.Boot.kernel in
      (* write plausible VMSA bytes, then request a launch *)
      P.write sys.Veil_core.Boot.platform sys.Veil_core.Boot.vcpu (T.gpa_of_gpfn frame) (Bytes.make 64 '\x41');
      let ghcb = K.ghcb sys.Veil_core.Boot.kernel in
      ghcb.Sevsnp.Ghcb.request <-
        Sevsnp.Ghcb.Req_create_vcpu { vmsa_gpfn = frame; target_vmpl = T.Vmpl0 };
      P.vmgexit sys.Veil_core.Boot.platform sys.Veil_core.Boot.vcpu ~ghcb:true;
      if ghcb.Sevsnp.Ghcb.response = 0 then Breached "hypervisor launched a forged VMPL-0 VMSA"
      else Blocked_error "hardware refused the frame: no RMP VMSA attribute")

let atk_idcb_trusted =
  mk "overwrite-trusted-idcb"
    "compromised OS overwrites trusted-domain communication memory in Dom_SEC (Table 1)"
    (fun () ->
      let sys = fresh () in
      os_write_gpa sys (T.gpa_of_gpfn (sys.Veil_core.Boot.layout.Veil_core.Layout.svc_region.Veil_core.Layout.lo + 1)))

let atk_malicious_pointer =
  mk "malicious-request-pointer"
    "compromised OS passes a pointer into VeilMon memory inside a service request (Table 1)"
    (fun () ->
      let sys = fresh () in
      let evil_dest = T.gpa_of_gpfn sys.Veil_core.Boot.layout.Veil_core.Layout.mon_heap.Veil_core.Layout.lo in
      match
        Veil_core.Monitor.os_call sys.Veil_core.Boot.mon sys.Veil_core.Boot.vcpu (Veil_core.Idcb.R_log_fetch { dest_gpa = evil_dest; max = 4096 })
      with
      | Veil_core.Idcb.Resp_error e -> Blocked_sanitizer e
      | _ -> Breached "VeilMon wrote to its own memory on the OS's behalf")

let atk_pvalidate_protected =
  mk "pvalidate-protected-frame"
    "compromised OS asks the delegate to unvalidate a VeilMon frame (§5.3 check)"
    (fun () ->
      let sys = fresh () in
      match
        Veil_core.Monitor.os_call sys.Veil_core.Boot.mon sys.Veil_core.Boot.vcpu
          (Veil_core.Idcb.R_pvalidate { gpfn = sys.Veil_core.Boot.layout.Veil_core.Layout.mon_image.Veil_core.Layout.lo; to_private = false })
      with
      | Veil_core.Idcb.Resp_error e -> Blocked_sanitizer e
      | _ -> Breached "delegated PVALIDATE touched a trusted region")

let atk_ap_start_tampered_vmsa =
  mk "ap-start-tampered-vmsa"
    "malicious hypervisor tampers with an AP's VMSA replicas during SMP bring-up (§5, Veil-SMP)"
    (fun () ->
      let sys = fresh () in
      (* The OS requests the AP start through the monitor (§5):
         VeilMon hot-plugs the VCPU and creates/validates its
         per-domain replicas and IDCB.  A refusal (possible under
         chaos) still means no tampered AP ran. *)
      match (K.hooks sys.Veil_core.Boot.kernel).Guest_kernel.Hooks.h_vcpu_boot ~vcpu_id:1 with
      | Error e -> Blocked_error ("AP bring-up refused: " ^ e)
      | Ok () -> (
          (* Before the AP executes guest code, the hypervisor tries
             to overwrite each replica's saved state through host
             memory; SNP keeps every VMSA in a private frame. *)
          let tampered =
            List.filter_map
              (fun vmpl ->
                match Hypervisor.Hv.try_tamper_vmsa sys.Veil_core.Boot.hv ~vcpu_id:1 ~vmpl with
                | Ok () -> Some (Format.asprintf "%a" T.pp_vmpl vmpl)
                | Error _ -> None)
              [ T.Vmpl0; T.Vmpl1; T.Vmpl2; T.Vmpl3 ]
          in
          match tampered with
          | d :: _ -> Breached ("host overwrote the AP's " ^ d ^ " VMSA replica")
          | [] ->
              (* Nor can a forged frame be substituted as the AP's
                 instance: without the RMP VMSA attribute the hardware
                 rejects it at VMRUN registration. *)
              let frame = K.alloc_frame sys.Veil_core.Boot.kernel in
              P.write sys.Veil_core.Boot.platform sys.Veil_core.Boot.vcpu (T.gpa_of_gpfn frame)
                (Bytes.make 64 '\x41');
              let ghcb = K.ghcb sys.Veil_core.Boot.kernel in
              ghcb.Sevsnp.Ghcb.request <-
                Sevsnp.Ghcb.Req_create_vcpu { vmsa_gpfn = frame; target_vmpl = T.Vmpl3 };
              P.vmgexit sys.Veil_core.Boot.platform sys.Veil_core.Boot.vcpu ~ghcb:true;
              if ghcb.Sevsnp.Ghcb.response = 0 then
                Breached "hypervisor swapped a forged VMSA into the AP"
              else
                Blocked_error
                  "AP replicas unwritable from the host; forged AP VMSA refused (no RMP VMSA attribute)"))

let framework_attacks () =
  [
    atk_boot_image;
    atk_read_mon;
    atk_write_sec;
    atk_rmpadjust_lift;
    atk_rmpadjust_priv;
    atk_write_vmsa;
    atk_write_protected_pt;
    atk_spawn_vcpu_rmpadjust;
    atk_spawn_vcpu_hypercall;
    atk_ap_start_tampered_vmsa;
    atk_idcb_trusted;
    atk_malicious_pointer;
    atk_pvalidate_protected;
  ]

(* --- Table 2: enclave attacks --- *)

let atk_wrong_binary =
  mk "enclave-wrong-binary"
    "OS loads a trojaned binary into the enclave; remote attestation must catch it (Table 2)"
    (fun () ->
      let sys = fresh () in
      let proc = K.spawn sys.Veil_core.Boot.kernel in
      let good_binary = Bytes.of_string (String.make 5000 'G') in
      let evil_binary = Bytes.of_string (String.make 5000 'X') in
      match Enclave_sdk.Runtime.create sys ~binary:evil_binary proc with
      | Error e -> Blocked_error e
      | Ok rt ->
          let expected =
            Veil_core.Encsvc.measure_expected ~binary:good_binary ~npages_heap:16 ~npages_stack:4
              ~base_va:Guest_kernel.Process.enclave_base
          in
          if Bytes.equal (Enclave_sdk.Runtime.measurement rt) expected then
            Breached "tampered binary produced the expected measurement"
          else Blocked_crypto "enclave measurement mismatch: user withholds secrets")

let atk_enclave_read =
  mk "enclave-read-from-os" "compromised OS reads enclave memory (Table 2)" (fun () ->
      let sys = fresh () in
      let rt = make_enclave sys in
      match Veil_core.Encsvc.resident_frame (Enclave_sdk.Runtime.enclave rt) Guest_kernel.Process.enclave_base with
      | Some frame -> os_read_gpa sys (T.gpa_of_gpfn frame)
      | None -> Breached "enclave page unexpectedly absent")

let atk_enclave_write =
  mk "enclave-write-from-os" "compromised OS writes enclave memory (Table 2)" (fun () ->
      let sys = fresh () in
      let rt = make_enclave sys in
      match Veil_core.Encsvc.resident_frame (Enclave_sdk.Runtime.enclave rt) Guest_kernel.Process.enclave_base with
      | Some frame -> os_write_gpa sys (T.gpa_of_gpfn frame)
      | None -> Breached "enclave page unexpectedly absent")

let atk_enclave_alias =
  mk "enclave-aliased-layout"
    "OS submits an enclave layout with two virtual pages on one frame (Table 2, layout)"
    (fun () ->
      let sys = fresh () in
      let frame = K.alloc_frame sys.Veil_core.Boot.kernel in
      let mk_page i =
        {
          Guest_kernel.Enclave_desc.page_va = Guest_kernel.Process.enclave_base + (i * T.page_size);
          page_gpfn = frame (* same frame twice! *);
          page_kind = Guest_kernel.Enclave_desc.Code;
        }
      in
      let ghcb_frame = K.alloc_frame sys.Veil_core.Boot.kernel in
      (match K.share_page_with_host sys.Veil_core.Boot.kernel ghcb_frame with Ok () -> () | Error e -> failwith e);
      let desc =
        {
          Guest_kernel.Enclave_desc.enclave_id = 999;
          owner_pid = 1;
          base_va = Guest_kernel.Process.enclave_base;
          entry_va = Guest_kernel.Process.enclave_base;
          pages = [ mk_page 0; mk_page 1 ];
          ghcb_gpfn = ghcb_frame;
          ghcb_va = 0;
          shared = [];
          finalized = false;
          measurement = None;
        }
      in
      match Veil_core.Monitor.os_call sys.Veil_core.Boot.mon sys.Veil_core.Boot.vcpu (Veil_core.Idcb.R_enclave_finalize desc) with
      | Veil_core.Idcb.Resp_error e -> Blocked_sanitizer e
      | _ -> Breached "aliased enclave layout accepted")

let atk_enclave_steal_frame =
  mk "enclave-disjointness"
    "OS builds a second enclave over the first enclave's physical pages (Table 2)"
    (fun () ->
      let sys = fresh () in
      let rt = make_enclave sys in
      let victim_frame =
        match
          Veil_core.Encsvc.resident_frame (Enclave_sdk.Runtime.enclave rt) Guest_kernel.Process.enclave_base
        with
        | Some f -> f
        | None -> failwith "no victim frame"
      in
      let ghcb_frame = K.alloc_frame sys.Veil_core.Boot.kernel in
      (match K.share_page_with_host sys.Veil_core.Boot.kernel ghcb_frame with Ok () -> () | Error e -> failwith e);
      let desc =
        {
          Guest_kernel.Enclave_desc.enclave_id = 998;
          owner_pid = 1;
          base_va = Guest_kernel.Process.enclave_base;
          entry_va = Guest_kernel.Process.enclave_base;
          pages =
            [
              {
                Guest_kernel.Enclave_desc.page_va = Guest_kernel.Process.enclave_base;
                page_gpfn = victim_frame;
                page_kind = Guest_kernel.Enclave_desc.Code;
              };
            ];
          ghcb_gpfn = ghcb_frame;
          ghcb_va = 0;
          shared = [];
          finalized = false;
          measurement = None;
        }
      in
      match Veil_core.Monitor.os_call sys.Veil_core.Boot.mon sys.Veil_core.Boot.vcpu (Veil_core.Idcb.R_enclave_finalize desc) with
      | Veil_core.Idcb.Resp_error e -> Blocked_sanitizer e
      | _ -> Breached "second enclave mapped the first enclave's frames")

let atk_enclave_vmsa_os =
  mk "enclave-vmsa-from-os" "compromised OS rewrites the enclave's saved rip in its VMSA (Table 2)"
    (fun () ->
      let sys = fresh () in
      let _rt = make_enclave sys in
      let vmsa = Veil_core.Monitor.vmsa_of sys.Veil_core.Boot.mon ~vcpu_id:0 ~dom:Veil_core.Privdom.Enc in
      os_write_gpa sys (T.gpa_of_gpfn vmsa.Sevsnp.Vmsa.backing_gpfn))

let atk_enclave_vmsa_hv =
  mk "enclave-vmsa-from-hypervisor"
    "hypervisor tries to overwrite the enclave VMSA through host memory (Table 2)"
    (fun () ->
      let sys = fresh () in
      let _rt = make_enclave sys in
      match Hypervisor.Hv.try_tamper_vmsa sys.Veil_core.Boot.hv ~vcpu_id:0 ~vmpl:T.Vmpl2 with
      | Ok () -> Breached "host wrote a private VMSA frame"
      | Error e -> Blocked_error e)

let atk_bad_ghcb =
  mk "enclave-bad-ghcb-mapping"
    "OS schedules the enclave with a wrong GHCB mapping; the switch must crash the CVM (§6.2)"
    (fun () ->
      let sys = fresh () in
      let _rt = make_enclave sys in
      (* point the GHCB MSR at a private frame and attempt the switch *)
      let vmsa = Sevsnp.Vcpu.current_vmsa sys.Veil_core.Boot.vcpu in
      vmsa.Sevsnp.Vmsa.ghcb_gpa <- T.gpa_of_gpfn (K.alloc_frame sys.Veil_core.Boot.kernel);
      P.vmgexit sys.Veil_core.Boot.platform sys.Veil_core.Boot.vcpu ~ghcb:true;
      Breached "domain switch proceeded with a bogus GHCB")

let atk_refuse_relay =
  mk "hypervisor-refuse-interrupt-relay"
    "hypervisor forces interrupt handling inside Dom_ENC instead of relaying (Table 2)"
    (fun () ->
      let sys = fresh () in
      let rt = make_enclave sys in
      let kernel = sys.Veil_core.Boot.kernel in
      Hypervisor.Hv.set_refuse_interrupt_relay sys.Veil_core.Boot.hv true;
      let j0 = Guest_kernel.Kernel.jiffies kernel in
      Enclave_sdk.Runtime.run rt (fun _ ->
          Hypervisor.Hv.inject_interrupt sys.Veil_core.Boot.hv sys.Veil_core.Boot.vcpu);
      (* the ISR never running is a (hypervisor-caused) denial of
         service, not a breach — e.g. a chaos plan dropped the relay
         before the refusal was even seen *)
      if Guest_kernel.Kernel.jiffies kernel = j0 then
        Blocked_error "interrupt never delivered at Dom_ENC (relay refused or dropped)"
      else Breached "kernel handler executed inside Dom_ENC")

let atk_cross_enclave =
  mk "malicious-enclave-cross-read"
    "a malicious enclave dereferences another enclave's address (Table 2)"
    (fun () ->
      let sys = fresh () in
      let victim = make_enclave sys in
      ignore victim;
      let attacker_proc = K.spawn sys.Veil_core.Boot.kernel in
      match
        Enclave_sdk.Runtime.create sys ~binary:(Bytes.of_string (String.make 4096 'A')) attacker_proc
      with
      | Error e -> failwith e
      | Ok attacker -> (
          (* the victim's pages are not in the attacker's protected
             tables; unprivileged code cannot remap them *)
          try
            Enclave_sdk.Runtime.run attacker (fun rt ->
                ignore
                  (Enclave_sdk.Runtime.read_data rt
                     ~va:(Guest_kernel.Process.enclave_base + (64 * T.page_size))
                     ~len:16));
            Breached "attacker enclave read outside its mapping"
          with P.Guest_page_fault _ -> Blocked_error "#PF: address not mapped in protected tables"))

let atk_enclave_exec_os =
  mk "enclave-execute-os-code" "an enclave jumps into kernel code at Dom_ENC (Table 2)" (fun () ->
      let sys = fresh () in
      let rt = make_enclave sys in
      Enclave_sdk.Runtime.run rt (fun _ ->
          P.check_exec sys.Veil_core.Boot.platform sys.Veil_core.Boot.vcpu
            (T.gpa_of_gpfn sys.Veil_core.Boot.layout.Veil_core.Layout.kernel_text.Veil_core.Layout.lo));
      Breached "kernel text executed from Dom_ENC")

let atk_paging_replay =
  mk "enclave-paging-replay"
    "OS replays a stale evicted page at restore time; freshness counter must reject (§6.2)"
    (fun () ->
      let sys = fresh () in
      let rt = make_enclave sys in
      let enclave = Enclave_sdk.Runtime.enclave rt in
      let id = Veil_core.Encsvc.enclave_id enclave in
      let va = Enclave_sdk.Runtime.heap_base rt in
      Enclave_sdk.Runtime.run rt (fun rt ->
          Enclave_sdk.Runtime.write_data rt ~va (Bytes.of_string "version 1"));
      (* evict v1 and squirrel away its ciphertext *)
      let frame = Option.get (Veil_core.Encsvc.resident_frame enclave va) in
      (match
         Veil_core.Monitor.os_call sys.Veil_core.Boot.mon sys.Veil_core.Boot.vcpu
           (Veil_core.Idcb.R_enclave_evict { enclave_id = id; va })
       with
      | Veil_core.Idcb.Resp_ok -> ()
      | _ -> failwith "evict failed");
      let stale =
        P.read sys.Veil_core.Boot.platform sys.Veil_core.Boot.vcpu (T.gpa_of_gpfn frame)
          T.page_size
      in
      (* restore v1, update to v2, evict again *)
      (match
         Veil_core.Monitor.os_call sys.Veil_core.Boot.mon sys.Veil_core.Boot.vcpu
           (Veil_core.Idcb.R_enclave_restore { enclave_id = id; va; gpfn = frame })
       with
      | Veil_core.Idcb.Resp_ok -> ()
      | _ -> failwith "restore failed");
      Enclave_sdk.Runtime.run rt (fun rt ->
          Enclave_sdk.Runtime.write_data rt ~va (Bytes.of_string "version 2"));
      (match
         Veil_core.Monitor.os_call sys.Veil_core.Boot.mon sys.Veil_core.Boot.vcpu
           (Veil_core.Idcb.R_enclave_evict { enclave_id = id; va })
       with
      | Veil_core.Idcb.Resp_ok -> ()
      | _ -> failwith "second evict failed");
      (* replay the stale v1 ciphertext *)
      P.write sys.Veil_core.Boot.platform sys.Veil_core.Boot.vcpu (T.gpa_of_gpfn frame) stale;
      match
        Veil_core.Monitor.os_call sys.Veil_core.Boot.mon sys.Veil_core.Boot.vcpu
          (Veil_core.Idcb.R_enclave_restore { enclave_id = id; va; gpfn = frame })
      with
      | Veil_core.Idcb.Resp_error e -> Blocked_error e
      | Veil_core.Idcb.Resp_ok -> Breached "stale enclave page accepted (rollback!)"
      | _ -> Breached "unexpected response")

let atk_enclave_ghcb_escalate =
  mk "enclave-ghcb-escalation"
    "a malicious enclave requests a switch to Dom_MON through its own GHCB (policy check)"
    (fun () ->
      let sys = fresh () in
      let rt = make_enclave sys in
      try
        Enclave_sdk.Runtime.run rt (fun _ ->
            let vcpu = sys.Veil_core.Boot.vcpu in
            match P.ghcb_of_vcpu sys.Veil_core.Boot.platform vcpu with
            | Some g ->
                g.Sevsnp.Ghcb.request <- Sevsnp.Ghcb.Req_domain_switch { target_vmpl = T.Vmpl0 };
                P.vmgexit sys.Veil_core.Boot.platform vcpu ~ghcb:true
            | None -> failwith "no ghcb");
        Breached "enclave switched to Dom_MON"
      with T.Cvm_halted reason -> Blocked_error ("CVM halted: " ^ reason))

let enclave_attacks () =
  [
    atk_wrong_binary;
    atk_paging_replay;
    atk_enclave_ghcb_escalate;
    atk_enclave_read;
    atk_enclave_write;
    atk_enclave_alias;
    atk_enclave_steal_frame;
    atk_enclave_vmsa_os;
    atk_enclave_vmsa_hv;
    atk_bad_ghcb;
    atk_refuse_relay;
    atk_cross_enclave;
    atk_enclave_exec_os;
  ]

(* --- §8.3 validation --- *)

let atk_validation_pt =
  mk "validation-pt-overwrite"
    "§8.3 attack 1: map VeilMon page tables into the OS address space and modify them"
    (fun () ->
      let sys = fresh () in
      let rt = make_enclave sys in
      let pt_frame = Veil_core.Encsvc.pt_root (Enclave_sdk.Runtime.enclave rt) in
      (* the OS maps the frame into a process and writes through its
         own (unprotected) tables — the RMP stops the final store *)
      let proc = K.spawn sys.Veil_core.Boot.kernel in
      let io =
        {
          Sevsnp.Pagetable.read_u64 = P.read_u64 sys.Veil_core.Boot.platform sys.Veil_core.Boot.vcpu;
          write_u64 = P.write_u64 sys.Veil_core.Boot.platform sys.Veil_core.Boot.vcpu;
          alloc_frame = (fun () -> K.alloc_frame sys.Veil_core.Boot.kernel);
          invalidate = (fun () -> P.tlb_shootdown sys.Veil_core.Boot.platform);
        }
      in
      let va = 0x7000_0000 in
      Sevsnp.Pagetable.map io ~root:proc.Guest_kernel.Process.pt_root va
        { Sevsnp.Pagetable.pte_gpfn = pt_frame; pte_flags = Sevsnp.Pagetable.kernel_rw };
      P.write_via_pt sys.Veil_core.Boot.platform sys.Veil_core.Boot.vcpu ~root:proc.Guest_kernel.Process.pt_root va
        (Bytes.make 8 '\xff');
      Breached "VeilMon page tables modified from the OS")

let atk_validation_module =
  mk "validation-module-text-overwrite"
    "§8.3 attack 2: disable OS W^X bits and overwrite a VeilS-KCI-protected module's text"
    (fun () ->
      let sys = fresh () in
      let kernel = sys.Veil_core.Boot.kernel in
      let img =
        Guest_kernel.Kmodule.build (K.rng kernel) ~name:"victim" ~text_size:4096 ~data_size:512
          ~symbols:[ "ksym_1" ]
      in
      K.vendor_sign_module kernel img;
      match K.load_module kernel img with
      | Error e -> failwith ("module load failed: " ^ e)
      | Ok loaded ->
          let text_frame = List.hd loaded.Guest_kernel.Kmodule.text_gpfns in
          (* attacker sets the writable bit in its own page tables —
             ineffective against the RMP *)
          let proc = K.spawn kernel in
          let io =
            {
              Sevsnp.Pagetable.read_u64 = P.read_u64 sys.Veil_core.Boot.platform sys.Veil_core.Boot.vcpu;
              write_u64 = P.write_u64 sys.Veil_core.Boot.platform sys.Veil_core.Boot.vcpu;
              alloc_frame = (fun () -> K.alloc_frame kernel);
              invalidate = (fun () -> P.tlb_shootdown sys.Veil_core.Boot.platform);
            }
          in
          let va = 0x7100_0000 in
          Sevsnp.Pagetable.map io ~root:proc.Guest_kernel.Process.pt_root va
            { Sevsnp.Pagetable.pte_gpfn = text_frame; pte_flags = Sevsnp.Pagetable.kernel_rw };
          P.write_via_pt sys.Veil_core.Boot.platform sys.Veil_core.Boot.vcpu ~root:proc.Guest_kernel.Process.pt_root va
            (Bytes.of_string "\xcc\xcc\xcc\xcc");
          Breached "module text overwritten despite VeilS-KCI")

let atk_stale_tlb =
  mk "validation-stale-tlb"
    "warm a translation in the VCPU TLB, have VeilMon revoke the frame's Dom_UNT \
     permissions, then replay the access hoping the cached translation survives"
    (fun () ->
      let sys = fresh () in
      let platform = sys.Veil_core.Boot.platform in
      let vcpu = sys.Veil_core.Boot.vcpu in
      let kernel = sys.Veil_core.Boot.kernel in
      (* the OS maps one of its own frames and reads it — legitimate,
         and it loads the translation + RMP snapshot into the TLB *)
      let frame = K.alloc_frame kernel in
      let proc = K.spawn kernel in
      let io =
        {
          Sevsnp.Pagetable.read_u64 = P.read_u64 platform vcpu;
          write_u64 = P.write_u64 platform vcpu;
          alloc_frame = (fun () -> K.alloc_frame kernel);
          invalidate = (fun () -> P.tlb_shootdown platform);
        }
      in
      let va = 0x7200_0000 in
      Sevsnp.Pagetable.map io ~root:proc.Guest_kernel.Process.pt_root va
        { Sevsnp.Pagetable.pte_gpfn = frame; pte_flags = Sevsnp.Pagetable.kernel_rw };
      ignore (P.read_via_pt platform vcpu ~root:proc.Guest_kernel.Process.pt_root va 8);
      (* VeilMon pulls the frame out from under the OS *)
      Veil_core.Monitor.domain_switch sys.Veil_core.Boot.mon vcpu ~target:Veil_core.Privdom.Mon;
      (match
         Veil_core.Monitor.mon_rmpadjust sys.Veil_core.Boot.mon vcpu ~gpfn:frame
           ~target:Veil_core.Privdom.Unt ~perms:Sevsnp.Perm.none
       with
      | Ok () -> ()
      | Error e -> failwith ("attack setup: revoke failed: " ^ e));
      Veil_core.Monitor.domain_switch sys.Veil_core.Boot.mon vcpu ~target:Veil_core.Privdom.Unt;
      (* replay: generation bump + instance-switch flush mean the warm
         entry must not be honoured *)
      ignore (P.read_via_pt platform vcpu ~root:proc.Guest_kernel.Process.pt_root va 8);
      Breached "stale TLB entry let the OS read a revoked frame")

let atk_pulse_tamper =
  mk "hypervisor-pulse-telemetry-tamper"
    "untrusted hypervisor drops, edits and reorders attested Veil-Pulse telemetry before it \
     reaches the verifier; the per-interval hash chain must flag every manipulation (ISSUE 8)"
    (fun () ->
      let sys = fresh () in
      let platform = sys.Veil_core.Boot.platform in
      let pu = platform.P.pulse in
      let vcpu = sys.Veil_core.Boot.vcpu in
      let kernel = sys.Veil_core.Boot.kernel in
      let proc = K.spawn kernel in
      (* audited opens: every op appends to VeilS-LOG through VeilMon,
         so the world-exit path (where the sampler ticks) runs hot *)
      Guest_kernel.Audit.set_rules (K.audit kernel) [ Guest_kernel.Sysno.Open ];
      Obs.Pulse.arm pu ~interval:200_000 ~now:(Sevsnp.Vcpu.rdtsc vcpu);
      for i = 1 to 200 do
        match
          K.invoke kernel proc Guest_kernel.Sysno.Open
            [ Guest_kernel.Ktypes.Str (Printf.sprintf "/tmp/pulse-%d" i);
              Guest_kernel.Ktypes.Int 0x42; Guest_kernel.Ktypes.Int 0o644 ]
        with
        | Guest_kernel.Ktypes.RInt fd ->
            ignore (K.invoke kernel proc Guest_kernel.Sysno.Close [ Guest_kernel.Ktypes.Int fd ])
        | r -> failwith (Format.asprintf "attack setup: open: %a" Guest_kernel.Ktypes.pp_ret r)
      done;
      Obs.Pulse.flush pu ~now:(Sevsnp.Vcpu.rdtsc vcpu);
      Obs.Pulse.disarm pu;
      let export = Obs.Pulse.export pu in
      (match Obs.Pulse.verify_export pu export with
      | Ok n when n >= 3 -> ()
      | Ok n -> failwith (Printf.sprintf "attack setup: only %d interval(s) captured" n)
      | Error (_, e) -> failwith ("attack setup: clean export rejected: " ^ e));
      let hdr, body =
        match String.split_on_char '\n' export with
        | h :: rest -> (h, rest)
        | [] -> failwith "attack setup: empty export"
      in
      let rejoin body = String.concat "\n" (hdr :: body) in
      let accepted tampered =
        match Obs.Pulse.verify_export pu tampered with Ok _ -> true | Error _ -> false
      in
      (* drop: suppress a middle interval *)
      let dropped = rejoin (List.filteri (fun k _ -> k <> List.length body / 2) body) in
      (* edit: inflate the middle interval's payload in place *)
      let edited =
        rejoin
          (List.mapi
             (fun k l ->
               if k = List.length body / 2 then
                 l ^ ",1:999" (* forge an extra delta slot *)
               else l)
             body)
      in
      (* reorder: swap the first two intervals *)
      let reordered =
        match body with a :: b :: rest -> rejoin (b :: a :: rest) | _ -> rejoin body
      in
      if accepted dropped then Breached "verifier accepted telemetry with a dropped interval"
      else if accepted edited then Breached "verifier accepted an edited interval"
      else if accepted reordered then Breached "verifier accepted reordered intervals"
      else
        Blocked_crypto
          "interval hash chain flagged the dropped, edited and reordered telemetry")

let validation_attacks () =
  [ atk_validation_pt; atk_validation_module; atk_stale_tlb; atk_pulse_tamper ]

(* Fleet scope (ISSUE 10): the Table-1 attacker — a fully compromised
   guest kernel — rides inside one tenant of a multi-guest host.  The
   oracle is strict byte-identity: co-tenants of the hostile guest must
   report the *same* histograms, data digests and schedules as in a
   benign run of the identical fleet, not merely "close" numbers. *)
let atk_fleet_cross_tenant =
  mk "fleet-compromised-guest-cross-tenant"
    "one guest of a 3-guest fleet runs a compromised kernel firing malicious request pointers \
     and a direct VeilMon read; every probe must be blocked and no co-tenant's histograms, \
     data or schedule may move by a single byte"
    (fun () ->
      let cfg =
        {
          Fleet.default with
          guests = 3;
          vcpus = 2;
          requests = 72;
          seed = 1033;
          lb = Fleet.Round_robin;
          (* Arm explicit per-guest fault plans: they are derived from the
             per-guest seed, so benign and hostile runs see identical fault
             streams and the byte-identity oracle holds even when the chaos
             driver has installed an ambient (stateful, shared) plan. *)
          chaos = true;
        }
      in
      let benign = Fleet.run cfg in
      let hostile = Fleet.run { cfg with hostile = Some 0 } in
      let victim i = (benign.Fleet.r_guests.(i), hostile.Fleet.r_guests.(i)) in
      let attacker = hostile.Fleet.r_guests.(0) in
      let drift = ref [] in
      for i = 1 to cfg.guests - 1 do
        let b, h = victim i in
        if b.Fleet.gr_hist_digest <> h.Fleet.gr_hist_digest then
          drift := Printf.sprintf "guest %d histograms moved" i :: !drift;
        if b.Fleet.gr_data_digest <> h.Fleet.gr_data_digest then
          drift := Printf.sprintf "guest %d data moved" i :: !drift;
        if b.Fleet.gr_journal <> h.Fleet.gr_journal then
          drift := Printf.sprintf "guest %d schedule moved" i :: !drift;
        if b.Fleet.gr_log_lines <> h.Fleet.gr_log_lines then
          drift := Printf.sprintf "guest %d protected log moved" i :: !drift;
        if not h.Fleet.gr_slog_ok then
          drift := Printf.sprintf "guest %d log chain broken" i :: !drift
      done;
      if !drift <> [] then
        Breached ("cross-tenant interference: " ^ String.concat "; " !drift)
      else if
        (* one sanitizer probe per served request, plus the final
           direct #NPF read *)
        attacker.Fleet.gr_blocked <> attacker.Fleet.gr_requests + 1
      then
        Breached
          (Printf.sprintf "hostile guest: only %d of %d probes blocked"
             attacker.Fleet.gr_blocked
             (attacker.Fleet.gr_requests + 1))
      else
        Blocked_sanitizer
          (Printf.sprintf
             "all %d malicious pointers rejected, VeilMon read faulted, %d co-tenants \
              byte-identical to the benign run"
             attacker.Fleet.gr_requests (cfg.guests - 1)))

let fleet_attacks () = [ atk_fleet_cross_tenant ]

let all () =
  framework_attacks () @ enclave_attacks () @ validation_attacks () @ fleet_attacks ()
