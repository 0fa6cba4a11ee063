(* One charge, one ledger: the typed cycle legs, the Veil-Prof
   conservation invariant (with the profiler armed and every frame
   closed, the ledger sums exactly to the VCPU counters), and the cost
   of the interrupt relay's automatic-exit path. *)

module C = Sevsnp.Cycles
module V = Sevsnp.Vcpu
module P = Sevsnp.Platform
module Prof = Obs.Profiler

let busy platform =
  List.fold_left (fun acc v -> acc + C.total v.V.counter) 0 (P.vcpus platform)

let arm platform =
  Prof.reset platform.P.profiler;
  Prof.set_enabled platform.P.profiler true

(* [charged] is the sum of every VCPU's counter delta over the armed
   window. *)
let check_conserved label platform ~charged =
  let prof = platform.P.profiler in
  List.iter
    (fun v ->
      Alcotest.(check int) (label ^ ": frames closed") 0 (Prof.open_frames prof ~vcpu:v.V.id))
    (P.vcpus platform);
  Alcotest.(check int) (label ^ ": ledger sums to the counters") charged (Prof.total_self prof);
  let folded = Obs.Folded.leaf_totals (Obs.Folded.parse (Obs.Folded.render (Prof.paths prof))) in
  Alcotest.(check bool) (label ^ ": folded leaf totals equal the ledger") true
    (folded = List.map (fun (k, (self, _)) -> (k, self)) (Prof.ledger prof))

let test_leg_table () =
  Alcotest.(check int) "domain-switch legs sum to 7135" 7135
    (List.fold_left (fun acc leg -> acc + C.switch_cost leg) 0 C.domain_switch_legs);
  Alcotest.(check (list string)) "switch legs in §9.1 order"
    [ "vmgexit"; "vmsa_save"; "ghcb_protocol"; "hv_relay"; "vmenter"; "vmsa_restore" ]
    (List.map C.leg_name C.domain_switch_legs);
  let bucket = Alcotest.testable (Fmt.of_to_string C.bucket_name) ( = ) in
  List.iter
    (fun (leg, name, b) ->
      Alcotest.(check string) "leg name" name (C.leg_name leg);
      Alcotest.check bucket (name ^ " bucket") b (C.bucket_of_leg leg))
    [ (C.Rmpadjust, "rmpadjust", C.Other); (C.Rmpadjust_monitor, "rmpadjust", C.Monitor);
      (C.Pvalidate, "pvalidate", C.Other); (C.Pvalidate_monitor, "pvalidate", C.Monitor);
      (C.Pvalidate_kernel, "pvalidate", C.Kernel); (C.Kaudit_format, "kaudit_format", C.Kernel);
      (C.Npf, "npf", C.Switch); (C.Compute, "compute", C.Compute); (C.Io, "io", C.Io) ];
  Alcotest.check_raises "work legs have no switch cost"
    (Invalid_argument "Cycles.switch_cost: not a world-switch leg: compute") (fun () ->
      ignore (C.switch_cost C.Compute))

(* A work leg charged inside a frame stays in the frame's self time; a
   named leg is a leaf wherever it is charged; work with no frame open
   becomes a leaf under its bucket name. *)
let test_charge_rule () =
  let sys = Veil_core.Boot.boot_veil ~npages:2048 ~seed:5 () in
  let platform = sys.Veil_core.Boot.platform and vcpu = sys.Veil_core.Boot.vcpu in
  let prof = platform.P.profiler in
  arm platform;
  let b0 = busy platform in
  V.charge vcpu C.Compute 100;
  Prof.push prof ~vcpu:vcpu.V.id ~vmpl:3 ~ts:(V.rdtsc vcpu) "frame";
  V.charge vcpu C.Compute 40;
  V.charge vcpu C.Kaudit_format 7;
  Prof.pop prof ~vcpu:vcpu.V.id ~ts:(V.rdtsc vcpu);
  Alcotest.(check (list (pair (pair int string) (pair int int)))) "ledger cells"
    [ ((3, "compute"), (100, 1)); ((3, "frame"), (40, 1)); ((3, "kaudit_format"), (7, 1)) ]
    (Prof.ledger prof);
  check_conserved "charge rule" platform ~charged:(busy platform - b0);
  Prof.set_enabled prof false;
  let n = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    V.charge vcpu C.Vmgexit 1;
    V.charge vcpu C.Compute 1
  done;
  Alcotest.(check (float 0.0)) "disarmed charge allocates nothing" 0.0
    ((Gc.minor_words () -. before) /. float_of_int n)

let test_e2_conserves () =
  let sys = Veil_core.Boot.boot_veil ~npages:2048 ~seed:3 () in
  let platform = sys.Veil_core.Boot.platform and vcpu = sys.Veil_core.Boot.vcpu in
  arm platform;
  let b0 = busy platform in
  for _ = 1 to 1000 do
    Veil_core.Monitor.domain_switch sys.Veil_core.Boot.mon vcpu ~target:Veil_core.Privdom.Mon;
    Veil_core.Monitor.domain_switch sys.Veil_core.Boot.mon vcpu ~target:Veil_core.Privdom.Unt
  done;
  check_conserved "E2 2000 switches" platform ~charged:(busy platform - b0);
  List.iter
    (fun leg ->
      Alcotest.(check int) (C.leg_name leg ^ " per switch") (C.switch_cost leg)
        (Prof.bucket_self platform.P.profiler (C.leg_name leg) / 2000))
    C.domain_switch_legs

let test_registry_conserves () =
  List.iter
    (fun w ->
      List.iter
        (fun mode ->
          let armed = ref None in
          let on_boot p =
            arm p;
            armed := Some (p, busy p)
          in
          ignore (Workloads.Driver.run ~on_boot mode w);
          let platform, b0 = Option.get !armed in
          check_conserved
            (Printf.sprintf "%s/%s" w.Workloads.Workload.name (Workloads.Driver.mode_to_string mode))
            platform ~charged:(busy platform - b0))
        Workloads.Driver.[ Native; Veil_background; Enclave; Veils_log ])
    (List.filteri (fun i _ -> i < 6) (Workloads.Registry.all ()))

let test_escale_conserves () =
  let module Es = Workloads.Escale in
  List.iter
    (fun (label, rings, spawn_work) ->
      let _, sys = Es.measure ~rings ~nvcpus:4 ~seed:97 ~spawn_work () in
      (* [measure] arms the profiler right after boot, before AP bring-up. *)
      let platform = sys.Veil_core.Boot.platform in
      Alcotest.(check int) "4 VCPUs" 4 (P.vcpu_count platform);
      check_conserved label platform ~charged:(busy platform - sys.Veil_core.Boot.boot_cycles))
    [ ("escale syscall-bench @4", false, Es.syscall_work ~ops_total:4096);
      ("escale http-server @4, rings", true, Es.http_work ~requests:256) ]

(* An interrupt taken at Dom_ENC is relayed to Dom_UNT and back through
   two automatic exits.  Values recorded before the automatic exit was
   folded into [Platform.vmgexit ~ghcb:false]. *)
let test_interrupt_relay_exit_path () =
  let sys = Veil_core.Boot.boot_veil ~npages:2048 ~seed:5 () in
  let platform = sys.Veil_core.Boot.platform and vcpu = sys.Veil_core.Boot.vcpu in
  let prof = platform.P.profiler and tr = platform.P.tracer in
  let proc = Guest_kernel.Kernel.spawn sys.Veil_core.Boot.kernel in
  match Enclave_sdk.Runtime.create sys ~binary:(Bytes.make 4096 'x') proc with
  | Error e -> Alcotest.fail e
  | Ok rt ->
      Enclave_sdk.Runtime.run rt (fun _ ->
          arm platform;
          Obs.Trace.clear tr;
          Obs.Trace.set_enabled tr true;
          let switch () = C.read_bucket vcpu.V.counter C.Switch in
          let s0 = switch () in
          Hypervisor.Hv.inject_interrupt sys.Veil_core.Boot.hv vcpu;
          Obs.Trace.set_enabled tr false;
          Prof.set_enabled prof false;
          Alcotest.(check int) "switch-bucket cycles" 13500 (switch () - s0));
      List.iter
        (fun (leg, hits) -> Alcotest.(check int) (leg ^ " hits") hits (Prof.bucket_hits prof leg))
        [ ("vmgexit", 2); ("vmsa_save", 2); ("vmenter", 2); ("vmsa_restore", 2);
          ("ghcb_protocol", 0) ];
      let exits =
        List.filter (fun e -> e.Obs.Trace.ev_kind = Obs.Trace.Vmgexit) (Obs.Trace.events tr)
      in
      Alcotest.(check (list int)) "automatic exits trace arg = 1" [ 1; 1 ]
        (List.map (fun e -> e.Obs.Trace.ev_arg) exits)

let suite =
  [
    ("leg table: names, buckets, switch costs", `Quick, test_leg_table);
    ("charge rule: frames, leaves, disarmed alloc", `Quick, test_charge_rule);
    ("conservation: E2 switch loop", `Quick, test_e2_conserves);
    ("conservation: registry workloads x modes", `Quick, test_registry_conserves);
    ("conservation: escale @4 (syscall, ringed http)", `Quick, test_escale_conserves);
    ("interrupt relay exit path pinned", `Quick, test_interrupt_relay_exit_path);
  ]
