(* Veil-Chaos tests (ISSUE 4): fault-plan determinism, hardened guest
   protocols under injection, watchdog, and the trial driver's two
   robustness invariants. *)

module FP = Chaos.Fault_plan
module T = Sevsnp.Types
module P = Sevsnp.Platform
module Hv = Hypervisor.Hv
module B = Veil_core.Boot
module CD = Chaos_driver

let mval sys name =
  Obs.Metrics.value (Obs.Metrics.counter sys.B.platform.P.metrics name)

(* --- the plan itself --- *)

let test_plan_deterministic () =
  let mk () =
    let p = FP.create ~seed:42 () in
    List.iter (fun s -> FP.set_site p s ~prob:0.3 ()) FP.all_sites;
    for i = 0 to 499 do
      ignore (FP.step p);
      ignore (FP.fire p (List.nth FP.all_sites (i mod FP.nsites)));
      ignore (FP.draw p 100)
    done;
    p
  in
  let a = mk () and b = mk () in
  Alcotest.(check bool) "same seed, same journal" true (FP.journal_equal a b);
  Alcotest.(check bool) "some injections fired" true (FP.total_hits a > 0);
  let c = FP.create ~seed:43 () in
  List.iter (fun s -> FP.set_site c s ~prob:0.3 ()) FP.all_sites;
  for i = 0 to 499 do
    ignore (FP.step c);
    ignore (FP.fire c (List.nth FP.all_sites (i mod FP.nsites)));
    ignore (FP.draw c 100)
  done;
  Alcotest.(check bool) "different seed, different journal" false (FP.journal_equal a c)

let test_plan_zero_prob_is_inert () =
  let p = FP.create ~seed:7 () in
  for _ = 1 to 1000 do
    List.iter (fun s -> Alcotest.(check bool) "never fires" false (FP.fire p s)) FP.all_sites
  done;
  Alcotest.(check int) "no hits" 0 (FP.total_hits p);
  List.iter
    (fun s -> Alcotest.(check int) "no PRNG draws consumed" 0 (FP.draws p s))
    FP.all_sites

let test_plan_schedules () =
  let p = FP.create ~seed:9 () in
  FP.set_site p FP.Rmpadjust_fail ~max_hits:3 ~prob:1.0 ();
  FP.set_site p FP.Pvalidate_fail ~skip:2 ~prob:1.0 ();
  let fired = List.init 10 (fun _ -> FP.fire p FP.Rmpadjust_fail) in
  Alcotest.(check int) "max_hits caps injections" 3
    (List.length (List.filter Fun.id fired));
  let fired = List.init 5 (fun _ -> FP.fire p FP.Pvalidate_fail) in
  Alcotest.(check (list bool)) "skip ignores the first eligible draws"
    [ false; false; true; true; true ] fired

(* Adversarial seeds: 0, the int extremes, and two seeds that once
   zeroed the plan's seed mix.  Each must yield a well-mixed,
   reproducible stream and an armed plan that both fires and misses. *)
let test_plan_adversarial_seeds () =
  let seeds = [ 0; max_int; min_int; 0x396b1b8a8b9b10bc; -3824519917198271814 ] in
  List.iter
    (fun seed ->
      let tag = Printf.sprintf "seed %#x" seed in
      let p = FP.create ~seed () in
      let distinct = Hashtbl.create 64 in
      for _ = 1 to 64 do
        Hashtbl.replace distinct (FP.draw p 65536) ()
      done;
      Alcotest.(check bool)
        (tag ^ ": draws are non-degenerate")
        true
        (Hashtbl.length distinct > 32);
      let arm seed =
        let p = FP.create ~seed () in
        List.iter (fun s -> FP.set_site p s ~prob:0.3 ()) FP.all_sites;
        for i = 0 to 199 do
          ignore (FP.step p);
          ignore (FP.fire p (List.nth FP.all_sites (i mod FP.nsites)))
        done;
        p
      in
      let a = arm seed and b = arm seed in
      Alcotest.(check bool) (tag ^ ": replay-identical") true (FP.journal_equal a b);
      Alcotest.(check bool) (tag ^ ": prob 0.3 fires sometimes") true (FP.total_hits a > 0);
      Alcotest.(check bool)
        (tag ^ ": prob 0.3 also misses")
        true
        (FP.total_hits a < 200))
    seeds

let test_site_names_roundtrip () =
  List.iter
    (fun s ->
      match FP.site_of_name (FP.site_name s) with
      | Some s' -> Alcotest.(check bool) "round trip" true (s = s')
      | None -> Alcotest.fail ("no round trip for " ^ FP.site_name s))
    FP.all_sites;
  Alcotest.(check bool) "unknown name rejected" true (FP.site_of_name "nonsense" = None);
  Alcotest.(check int) "fourteen sites" 14 FP.nsites

(* --- armed-but-zero plan is behaviourally invisible --- *)

let test_armed_zero_plan_identical_boot () =
  let clean = B.boot_veil ~npages:2048 ~seed:5 () in
  let plan = FP.create ~seed:1 () in
  let armed = B.boot_veil ~npages:2048 ~seed:5 ~chaos:plan () in
  Alcotest.(check int) "identical boot cycle count" clean.B.boot_cycles armed.B.boot_cycles;
  Alcotest.(check int) "no steps consumed beyond exits" (FP.total_hits plan) 0

(* --- hardened guest protocols under targeted injection --- *)

let test_transient_rmpadjust_retried () =
  let plan = FP.create ~seed:3 () in
  FP.set_site plan FP.Rmpadjust_fail ~max_hits:3 ~prob:1.0 ();
  let sys = B.boot_veil ~npages:2048 ~seed:5 ~chaos:plan () in
  Alcotest.(check int) "three transient failures injected" 3 (FP.hits plan FP.Rmpadjust_fail);
  Alcotest.(check bool) "bounded retry absorbed them" true (mval sys "monitor.insn_retries" >= 3);
  Alcotest.(check bool) "boot completed at Dom_UNT" true
    (T.equal_vmpl (Sevsnp.Vcpu.vmpl sys.B.vcpu) T.Vmpl3)

let test_transient_pvalidate_retried () =
  let plan = FP.create ~seed:3 () in
  FP.set_site plan FP.Pvalidate_fail ~max_hits:4 ~prob:1.0 ();
  let sys = B.boot_veil ~npages:2048 ~seed:5 ~chaos:plan () in
  Alcotest.(check int) "four transient failures injected" 4 (FP.hits plan FP.Pvalidate_fail);
  Alcotest.(check bool) "bounded retry absorbed them" true (mval sys "monitor.insn_retries" >= 4)

let test_ghcb_corruption_sanitized () =
  let plan = FP.create ~seed:3 () in
  FP.set_site plan FP.Ghcb_corrupt ~max_hits:2 ~prob:1.0 ();
  let sys = B.boot_veil ~npages:2048 ~seed:5 ~chaos:plan () in
  Alcotest.(check int) "two corruptions injected" 2 (FP.hits plan FP.Ghcb_corrupt);
  Alcotest.(check bool) "out-of-protocol responses rejected and retried" true
    (mval sys "monitor.ghcb_sanitized" >= 1)

let test_refused_switch_retried () =
  let plan = FP.create ~seed:3 () in
  let sys = B.boot_veil ~npages:2048 ~seed:5 ~chaos:plan () in
  (* Arm refusal only after boot so we exercise the steady-state
     domain-switch path, then drive one os_call round trip. *)
  FP.set_site plan FP.Vmgexit_refuse ~max_hits:2 ~prob:1.0 ();
  Veil_core.Monitor.domain_switch sys.B.mon sys.B.vcpu ~target:Veil_core.Privdom.Mon;
  Veil_core.Monitor.domain_switch sys.B.mon sys.B.vcpu ~target:Veil_core.Privdom.Unt;
  Alcotest.(check bool) "refusals injected" true (FP.hits plan FP.Vmgexit_refuse >= 1);
  Alcotest.(check bool) "verified switch re-requested" true
    (mval sys "monitor.switch_retries" >= 1);
  Alcotest.(check bool) "landed at Dom_UNT regardless" true
    (T.equal_vmpl (Sevsnp.Vcpu.vmpl sys.B.vcpu) T.Vmpl3)

let test_os_call_replay_suppressed () =
  let sys = B.boot_veil ~npages:2048 ~seed:5 () in
  let vcpu = sys.B.vcpu in
  let idcb = Veil_core.Monitor.idcb_of sys.B.mon ~vcpu_id:vcpu.Sevsnp.Vcpu.id in
  let req = Veil_core.Idcb.R_tpm_extend { pcr = 1; data = Bytes.of_string "once" } in
  let r1 = Veil_core.Monitor.os_call sys.B.mon vcpu req in
  Alcotest.(check bool) "call served" true (r1 = Veil_core.Idcb.Resp_ok);
  (* A duplicated relay re-runs the serving path with the same
     sequence number: the monitor must not re-execute the request. *)
  idcb.Veil_core.Idcb.request <- req;
  Veil_core.Monitor.domain_switch sys.B.mon vcpu ~target:Veil_core.Privdom.Sec;
  let r2 = Veil_core.Monitor.serve_pending sys.B.mon vcpu in
  Veil_core.Monitor.domain_switch sys.B.mon vcpu ~target:Veil_core.Privdom.Unt;
  Alcotest.(check bool) "replay answered from cache" true (r2 = r1);
  Alcotest.(check bool) "replay counted" true (mval sys "monitor.replays_suppressed" >= 1)

let test_relay_drop_counted_and_traced () =
  let plan = FP.create ~seed:3 () in
  let sys = B.boot_veil ~npages:2048 ~seed:5 ~chaos:plan () in
  let tr = sys.B.platform.P.tracer in
  Obs.Trace.set_enabled tr true;
  FP.set_site plan FP.Relay_drop ~max_hits:1 ~prob:1.0 ();
  let j0 = Guest_kernel.Kernel.jiffies sys.B.kernel in
  Hv.inject_interrupt sys.B.hv sys.B.vcpu;
  Alcotest.(check int) "interrupt silently dropped" j0
    (Guest_kernel.Kernel.jiffies sys.B.kernel);
  Alcotest.(check int) "drop counted" 1 (mval sys "hv.relay.dropped");
  let dropped_spans =
    List.filter
      (fun e -> e.Obs.Trace.ev_kind = Obs.Trace.Span "hv.relay_dropped")
      (Obs.Trace.events tr)
  in
  Alcotest.(check int) "drop traced" 1 (List.length dropped_spans);
  Hv.inject_interrupt sys.B.hv sys.B.vcpu;
  Alcotest.(check int) "next interrupt delivered" (j0 + 1)
    (Guest_kernel.Kernel.jiffies sys.B.kernel)

let test_relay_dup_redelivers () =
  let plan = FP.create ~seed:3 () in
  let sys = B.boot_veil ~npages:2048 ~seed:5 ~chaos:plan () in
  FP.set_site plan FP.Relay_dup ~max_hits:1 ~prob:1.0 ();
  let j0 = Guest_kernel.Kernel.jiffies sys.B.kernel in
  Hv.inject_interrupt sys.B.hv sys.B.vcpu;
  (* the duplicate is delivered after the first was acked: the ISR
     runs twice — observable, but harmless to guest state *)
  Alcotest.(check int) "delivered twice" (j0 + 2) (Guest_kernel.Kernel.jiffies sys.B.kernel)

let test_watchdog_halts_on_budget () =
  let plan = FP.create ~max_steps:3 ~seed:3 () in
  match B.boot_veil ~npages:2048 ~seed:5 ~chaos:plan () with
  | _ -> Alcotest.fail "boot exceeded the step budget without halting"
  | exception T.Cvm_halted r ->
      Alcotest.(check bool) "watchdog reason" true
        (String.length r >= 14 && String.sub r 0 14 = "chaos watchdog")

(* --- the trial driver: invariants over full workloads --- *)

let test_driver_trials_hold_invariants () =
  List.iter
    (fun seed ->
      List.iter
        (fun w ->
          let t = CD.run_workload ~seed w in
          if not (CD.outcome_ok t.CD.tr_outcome) then
            Alcotest.fail
              (Printf.sprintf "workload %s seed %d violated an invariant: %s"
                 (CD.workload_name w) seed
                 (CD.outcome_to_string t.CD.tr_outcome)))
        CD.all_workloads)
    [ 2; 71 ]

let test_driver_replay_identical () =
  let a = CD.run_workload ~seed:1009 CD.Wl_syscall in
  let b = CD.run_workload ~seed:1009 CD.Wl_syscall in
  Alcotest.(check bool) "same seed, identical injection journal" true
    (FP.journal_equal a.CD.tr_plan b.CD.tr_plan);
  Alcotest.(check bool) "plan actually fired" true (FP.total_hits a.CD.tr_plan > 0)

let test_attacks_stay_blocked_under_chaos () =
  let breached, n = CD.attacks_under_chaos ~seed:13 () in
  Alcotest.(check bool) "all attacks ran" true (n >= 20);
  List.iter
    (fun (name, o) -> Alcotest.fail (Printf.sprintf "BREACHED under chaos: %s (%s)" name o))
    breached

let suite =
  [
    ("fault plan is seed-deterministic", `Quick, test_plan_deterministic);
    ("zero-probability plan is inert", `Quick, test_plan_zero_prob_is_inert);
    ("max_hits and skip schedules", `Quick, test_plan_schedules);
    ("adversarial seeds keep the PRNG live", `Quick, test_plan_adversarial_seeds);
    ("site names round trip", `Quick, test_site_names_roundtrip);
    ("armed all-zero plan boots identically", `Quick, test_armed_zero_plan_identical_boot);
    ("transient RMPADJUST failures retried", `Quick, test_transient_rmpadjust_retried);
    ("transient PVALIDATE failures retried", `Quick, test_transient_pvalidate_retried);
    ("GHCB corruption sanitized", `Quick, test_ghcb_corruption_sanitized);
    ("refused domain switch re-requested", `Quick, test_refused_switch_retried);
    ("replayed os_call served from cache", `Quick, test_os_call_replay_suppressed);
    ("dropped relay counted and traced", `Quick, test_relay_drop_counted_and_traced);
    ("duplicated relay redelivered after ack", `Quick, test_relay_dup_redelivers);
    ("watchdog halts on step budget", `Quick, test_watchdog_halts_on_budget);
    ("driver trials hold both invariants", `Slow, test_driver_trials_hold_invariants);
    ("driver replay is journal-identical", `Quick, test_driver_replay_identical);
    ("attacks stay blocked under chaos", `Slow, test_attacks_stay_blocked_under_chaos);
  ]
