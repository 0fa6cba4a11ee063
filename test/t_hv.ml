(* Hypervisor tests: launch, VMSA registry, domain-switch relay +
   policy, interrupt relay, host-side isolation. *)

module T = Sevsnp.Types
module P = Sevsnp.Platform
module Hv = Hypervisor.Hv

let boot () = Veil_core.Boot.boot_veil ~npages:2048 ~seed:5 ()

let test_launch_measured () =
  let sys = boot () in
  Alcotest.(check bool) "launch measurement recorded" true
    (Sevsnp.Attestation.launch_measurement sys.Veil_core.Boot.platform.P.attestation <> None);
  Alcotest.(check bool) "boot vcpu running" true (sys.Veil_core.Boot.vcpu.Sevsnp.Vcpu.current <> None)

let test_launch_deterministic_measurement () =
  let a = Veil_core.Boot.boot_veil ~npages:2048 ~seed:5 () in
  let b = Veil_core.Boot.boot_veil ~npages:2048 ~seed:5 () in
  let m sys = Option.get (Sevsnp.Attestation.launch_measurement sys.Veil_core.Boot.platform.P.attestation) in
  Alcotest.(check bool) "same seed, same measurement" true (Bytes.equal (m a) (m b));
  let c = Veil_core.Boot.boot_veil ~npages:2048 ~seed:6 () in
  Alcotest.(check bool) "different image, different measurement" false (Bytes.equal (m a) (m c))

let test_vmsa_registry () =
  let sys = boot () in
  List.iter
    (fun vmpl ->
      match Hv.vmsa_for sys.Veil_core.Boot.hv ~vcpu_id:0 ~vmpl with
      | Some vmsa -> Alcotest.(check bool) "vmpl matches" true (T.equal_vmpl vmsa.Sevsnp.Vmsa.vmpl vmpl)
      | None -> Alcotest.fail "missing replica for a domain")
    [ T.Vmpl0; T.Vmpl1; T.Vmpl2; T.Vmpl3 ]

let test_domain_switch_cost () =
  let sys = boot () in
  let vcpu = sys.Veil_core.Boot.vcpu in
  let mon = sys.Veil_core.Boot.mon in
  let before = Sevsnp.Cycles.read_bucket vcpu.Sevsnp.Vcpu.counter Sevsnp.Cycles.Switch in
  Veil_core.Monitor.domain_switch mon vcpu ~target:Veil_core.Privdom.Mon;
  let after = Sevsnp.Cycles.read_bucket vcpu.Sevsnp.Vcpu.counter Sevsnp.Cycles.Switch in
  Alcotest.(check int) "one relayed switch costs exactly 7135 cycles" 7135 (after - before);
  Veil_core.Monitor.domain_switch mon vcpu ~target:Veil_core.Privdom.Unt

let test_switch_changes_instance () =
  let sys = boot () in
  let vcpu = sys.Veil_core.Boot.vcpu in
  Alcotest.(check bool) "starts at Dom_UNT" true (T.equal_vmpl (Sevsnp.Vcpu.vmpl vcpu) T.Vmpl3);
  Veil_core.Monitor.domain_switch sys.Veil_core.Boot.mon vcpu ~target:Veil_core.Privdom.Mon;
  Alcotest.(check bool) "now at Dom_MON" true (T.equal_vmpl (Sevsnp.Vcpu.vmpl vcpu) T.Vmpl0);
  Veil_core.Monitor.domain_switch sys.Veil_core.Boot.mon vcpu ~target:Veil_core.Privdom.Unt;
  Alcotest.(check bool) "back at Dom_UNT" true (T.equal_vmpl (Sevsnp.Vcpu.vmpl vcpu) T.Vmpl3)

let test_switch_counts () =
  let sys = boot () in
  let before = (Hv.stats sys.Veil_core.Boot.hv).Hv.domain_switches in
  Veil_core.Monitor.domain_switch sys.Veil_core.Boot.mon sys.Veil_core.Boot.vcpu
    ~target:Veil_core.Privdom.Mon;
  Veil_core.Monitor.domain_switch sys.Veil_core.Boot.mon sys.Veil_core.Boot.vcpu
    ~target:Veil_core.Privdom.Unt;
  Alcotest.(check int) "two switches recorded" (before + 2)
    (Hv.stats sys.Veil_core.Boot.hv).Hv.domain_switches

let test_interrupt_relay_to_kernel () =
  let sys = boot () in
  let j0 = Guest_kernel.Kernel.jiffies sys.Veil_core.Boot.kernel in
  Hv.inject_interrupt sys.Veil_core.Boot.hv sys.Veil_core.Boot.vcpu;
  Alcotest.(check int) "ISR ran" (j0 + 1) (Guest_kernel.Kernel.jiffies sys.Veil_core.Boot.kernel)

let test_interrupt_relay_from_enclave () =
  let sys = boot () in
  let proc = Guest_kernel.Kernel.spawn sys.Veil_core.Boot.kernel in
  match Enclave_sdk.Runtime.create sys ~binary:(Bytes.make 4096 'x') proc with
  | Error e -> Alcotest.fail e
  | Ok rt ->
      let j0 = Guest_kernel.Kernel.jiffies sys.Veil_core.Boot.kernel in
      Enclave_sdk.Runtime.run rt (fun _ ->
          (* interrupt arrives while at Dom_ENC: relayed to Dom_UNT and back *)
          Hv.inject_interrupt sys.Veil_core.Boot.hv sys.Veil_core.Boot.vcpu;
          Alcotest.(check bool) "back at Dom_ENC after relay" true
            (T.equal_vmpl (Sevsnp.Vcpu.vmpl sys.Veil_core.Boot.vcpu) T.Vmpl2));
      Alcotest.(check int) "kernel ISR ran during relay" (j0 + 1)
        (Guest_kernel.Kernel.jiffies sys.Veil_core.Boot.kernel)

let test_interrupt_coalesced_before_ack () =
  let sys = boot () in
  let hv = sys.Veil_core.Boot.hv in
  let kernel = sys.Veil_core.Boot.kernel in
  let vcpu = sys.Veil_core.Boot.vcpu in
  let m = sys.Veil_core.Boot.platform.P.metrics in
  (* The duplicate arrives while the first delivery is still unacked
     (the ISR has not returned): real APICs coalesce the vector. *)
  Hv.set_interrupt_handler hv (fun v ->
      Hv.inject_interrupt hv v;
      Guest_kernel.Kernel.handle_interrupt kernel v);
  let j0 = Guest_kernel.Kernel.jiffies kernel in
  Hv.inject_interrupt hv vcpu;
  Alcotest.(check int) "ISR ran exactly once" (j0 + 1) (Guest_kernel.Kernel.jiffies kernel);
  Alcotest.(check int) "duplicate coalesced" 1
    (Obs.Metrics.value (Obs.Metrics.counter m "hv.relay.coalesced"));
  (* After the ack, injection delivers again. *)
  Hv.set_interrupt_handler hv (Guest_kernel.Kernel.handle_interrupt kernel);
  Hv.inject_interrupt hv vcpu;
  Alcotest.(check int) "next interrupt delivers" (j0 + 2) (Guest_kernel.Kernel.jiffies kernel)

let test_relay_refused_mid_switch () =
  let sys = boot () in
  let hv = sys.Veil_core.Boot.hv in
  let kernel = sys.Veil_core.Boot.kernel in
  let vcpu = sys.Veil_core.Boot.vcpu in
  let m = sys.Veil_core.Boot.platform.P.metrics in
  (* Park the VCPU mid domain switch (running at Dom_MON, relay target
     Dom_UNT), then have the hypervisor refuse the relay. *)
  Veil_core.Monitor.domain_switch sys.Veil_core.Boot.mon vcpu ~target:Veil_core.Privdom.Mon;
  Hv.set_refuse_interrupt_relay hv true;
  let j0 = Guest_kernel.Kernel.jiffies kernel in
  Hv.inject_interrupt hv vcpu;
  (* VMPL-0 may execute kernel text, so the refusal is survivable here
     — but the ISR never ran and the refusal was counted. *)
  Alcotest.(check int) "ISR did not run" j0 (Guest_kernel.Kernel.jiffies kernel);
  Alcotest.(check int) "refusal counted" 1
    (Obs.Metrics.value (Obs.Metrics.counter m "hv.relay.refused"));
  Alcotest.(check bool) "CVM not halted" true (P.is_halted sys.Veil_core.Boot.platform = None);
  Hv.set_refuse_interrupt_relay hv false;
  Veil_core.Monitor.domain_switch sys.Veil_core.Boot.mon vcpu ~target:Veil_core.Privdom.Unt;
  Hv.inject_interrupt hv vcpu;
  Alcotest.(check int) "relay works again" (j0 + 1) (Guest_kernel.Kernel.jiffies kernel)

let test_policy_blocks_errant_switch () =
  let sys = boot () in
  let proc = Guest_kernel.Kernel.spawn sys.Veil_core.Boot.kernel in
  match Enclave_sdk.Runtime.create sys ~binary:(Bytes.make 4096 'x') proc with
  | Error e -> Alcotest.fail e
  | Ok rt ->
      let enclave = Enclave_sdk.Runtime.enclave rt in
      let desc = Veil_core.Encsvc.desc enclave in
      (* From Dom_UNT, request a switch to Dom_MON through the
         *enclave's* policy-restricted GHCB: must crash the CVM. *)
      let platform = sys.Veil_core.Boot.platform in
      let vcpu = sys.Veil_core.Boot.vcpu in
      (match P.set_ghcb platform vcpu (T.gpa_of_gpfn desc.Guest_kernel.Enclave_desc.ghcb_gpfn) with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      let ghcb = Option.get (P.ghcb_of_vcpu platform vcpu) in
      ghcb.Sevsnp.Ghcb.request <- Sevsnp.Ghcb.Req_domain_switch { target_vmpl = T.Vmpl0 };
      (try
         P.vmgexit platform vcpu ~ghcb:true;
         Alcotest.fail "errant switch was allowed"
       with T.Cvm_halted _ -> ());
      Alcotest.(check bool) "CVM halted" true (P.is_halted platform <> None)

let test_policy_config_requires_vmpl0 () =
  let sys = boot () in
  (* The OS tries to retune the switch policy from Dom_UNT. *)
  let ghcb = Guest_kernel.Kernel.ghcb sys.Veil_core.Boot.kernel in
  ghcb.Sevsnp.Ghcb.request <-
    Sevsnp.Ghcb.Req_set_switch_policy { ghcb_gpfn = 0; allowed = [ (T.Vmpl3, T.Vmpl0) ] };
  P.vmgexit sys.Veil_core.Boot.platform sys.Veil_core.Boot.vcpu ~ghcb:true;
  Alcotest.(check int) "hypervisor refused" 1 ghcb.Sevsnp.Ghcb.response

let test_host_cannot_read_private () =
  let sys = boot () in
  match Hv.try_read_guest sys.Veil_core.Boot.hv (T.gpa_of_gpfn 20) 16 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "host read private guest memory"

let test_io_request () =
  let sys = boot () in
  let before = (Hv.stats sys.Veil_core.Boot.hv).Hv.io_requests in
  let ghcb = Guest_kernel.Kernel.ghcb sys.Veil_core.Boot.kernel in
  ghcb.Sevsnp.Ghcb.request <- Sevsnp.Ghcb.Req_io { write = true; port = 1; len = 512 };
  P.vmgexit sys.Veil_core.Boot.platform sys.Veil_core.Boot.vcpu ~ghcb:true;
  Alcotest.(check int) "io handled" (before + 1) (Hv.stats sys.Veil_core.Boot.hv).Hv.io_requests;
  Alcotest.(check int) "acked" 0 ghcb.Sevsnp.Ghcb.response

let test_vcpu_hotplug () =
  let sys = boot () in
  let kernel = sys.Veil_core.Boot.kernel in
  (* kernel initiates hotplug of VCPU 1 through the delegation hook *)
  match (Guest_kernel.Kernel.hooks kernel).Guest_kernel.Hooks.h_vcpu_boot ~vcpu_id:1 with
  | Error e -> Alcotest.fail e
  | Ok () ->
      let fresh = List.nth (P.vcpus sys.Veil_core.Boot.platform) 1 in
      Alcotest.(check bool) "new vcpu entered" true (fresh.Sevsnp.Vcpu.current <> None);
      Alcotest.(check bool) "boots at Dom_UNT (§5.3)" true
        (T.equal_vmpl (Sevsnp.Vcpu.vmpl fresh) T.Vmpl3);
      (* replicas exist for all four domains *)
      List.iter
        (fun vmpl ->
          Alcotest.(check bool) "replica exists" true (Hv.vmsa_for sys.Veil_core.Boot.hv ~vcpu_id:1 ~vmpl <> None))
        [ T.Vmpl0; T.Vmpl1; T.Vmpl2; T.Vmpl3 ]

(* --- Interleave: scripted replay + guided branch points (ISSUE 9) --- *)

module I = Hv.Interleave

let test_interleave_scripted_roundtrip () =
  let runnable _ = true in
  let a = I.create ~policy:(I.Seeded 7) ~nvcpus:3 () in
  for _ = 1 to 12 do
    ignore (I.next a ~runnable)
  done;
  let j = I.journal a in
  let b = I.create ~policy:(I.Scripted j) ~nvcpus:3 () in
  for _ = 1 to 12 do
    ignore (I.next b ~runnable)
  done;
  Alcotest.(check string) "byte-for-byte replay" j (I.journal b)

let test_interleave_short_journal_fails_loudly () =
  let runnable _ = true in
  let t = I.create ~policy:(I.Scripted "0120") ~nvcpus:3 () in
  for _ = 1 to 4 do
    ignore (I.next t ~runnable)
  done;
  (try
     ignore (I.next t ~runnable);
     Alcotest.fail "journal shorter than the schedule silently extended"
   with I.Journal_exhausted { journal; steps } ->
     Alcotest.(check string) "journal reported" "0120" journal;
     Alcotest.(check int) "1-based failing step reported" 5 steps);
  (* no runnable VCPU is an idle schedule, not an exhausted journal *)
  let idle = I.create ~policy:(I.Scripted "") ~nvcpus:2 () in
  Alcotest.(check bool) "idle -> None, no decision consumed" true
    (I.next idle ~runnable:(fun _ -> false) = None)

let test_interleave_journal_mismatch () =
  let t = I.create ~policy:(I.Scripted "02") ~nvcpus:3 () in
  ignore (I.next t ~runnable:(fun _ -> true));
  (try
     ignore (I.next t ~runnable:(fun v -> v <> 2));
     Alcotest.fail "non-runnable scripted choice accepted"
   with I.Journal_mismatch { step; chosen; _ } ->
     Alcotest.(check int) "0-based step" 1 step;
     Alcotest.(check int) "prescribed vcpu" 2 chosen);
  let bad = I.create ~policy:(I.Scripted "7") ~nvcpus:2 () in
  try
    ignore (I.next bad ~runnable:(fun _ -> true));
    Alcotest.fail "out-of-range scripted choice accepted"
  with I.Journal_mismatch { chosen = 7; _ } -> ()

let test_interleave_guided_branch_points () =
  let seen = ref [] in
  let last en = List.nth en (List.length en - 1) in
  let t =
    I.create
      ~policy:
        (I.Guided
           (fun en ->
             seen := en :: !seen;
             last en))
      ~nvcpus:3 ()
  in
  ignore (I.next t ~runnable:(fun _ -> true));
  ignore (I.next t ~runnable:(fun v -> v = 0));
  Alcotest.(check string) "guided choices journaled" "20" (I.journal t);
  Alcotest.(check (list (list int))) "full runnable sets exposed, newest first"
    [ [ 0 ]; [ 0; 1; 2 ] ]
    !seen;
  let rogue = I.create ~policy:(I.Guided (fun _ -> 9)) ~nvcpus:2 () in
  try
    ignore (I.next rogue ~runnable:(fun _ -> true));
    Alcotest.fail "guide chose outside the runnable set"
  with Invalid_argument _ -> ()

let suite =
  [
    ("measured launch", `Quick, test_launch_measured);
    ("deterministic launch measurement", `Quick, test_launch_deterministic_measurement);
    ("per-domain VMSA registry", `Quick, test_vmsa_registry);
    ("domain switch costs 7135 cycles", `Quick, test_domain_switch_cost);
    ("switch changes running instance", `Quick, test_switch_changes_instance);
    ("switches counted", `Quick, test_switch_counts);
    ("interrupt relayed to kernel", `Quick, test_interrupt_relay_to_kernel);
    ("interrupt relayed out of enclave", `Quick, test_interrupt_relay_from_enclave);
    ("duplicate interrupt before ack coalesces", `Quick, test_interrupt_coalesced_before_ack);
    ("relay refusal mid domain switch", `Quick, test_relay_refused_mid_switch);
    ("GHCB policy blocks errant switch", `Quick, test_policy_blocks_errant_switch);
    ("policy config requires VMPL-0", `Quick, test_policy_config_requires_vmpl0);
    ("host cannot read private memory", `Quick, test_host_cannot_read_private);
    ("io request round trip", `Quick, test_io_request);
    ("vcpu hotplug via delegation", `Quick, test_vcpu_hotplug);
    ("interleave: scripted replay round-trips", `Quick, test_interleave_scripted_roundtrip);
    ("interleave: short journal fails loudly", `Quick, test_interleave_short_journal_fails_loudly);
    ("interleave: journal mismatch fails loudly", `Quick, test_interleave_journal_mismatch);
    ("interleave: guided branch points", `Quick, test_interleave_guided_branch_points);
  ]
