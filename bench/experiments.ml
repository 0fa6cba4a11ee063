(* Experiment implementations: one per table/figure of the paper's §9
   (see DESIGN.md's experiment index).  Each prints paper-reported
   values next to the values measured on the simulated platform. *)

module C = Sevsnp.Cycles
module T = Sevsnp.Types
module P = Sevsnp.Platform
module K = Guest_kernel.Ktypes
module S = Guest_kernel.Sysno
module Kern = Guest_kernel.Kernel
module W = Workloads
module D = Workloads.Driver

let line () = print_endline (String.make 78 '-')

let header title paper =
  line ();
  Printf.printf "%s\n" title;
  Printf.printf "paper: %s\n" paper;
  line ()

let seconds c = C.seconds_of_cycles c

(* --- machine-readable results (--json) ---

   When enabled, every Driver.run result an experiment produces is
   recorded and [emit_json] prints one JSON document (after the human
   tables) with the full per-bucket cycle breakdown of each run. *)

let json_mode = ref false

(* Guest RNG seed for every Driver.run; overridable with --seed so a
   failing table can be reproduced (and chaos runs can diversify the
   guest side).  97 is the driver's historical default. *)
let seed = ref 97

(* Veil-Ring opt-in (--rings): escale runs with batched submission
   rings; everything else is untouched so E2's single-call legs stay
   byte-identical. *)
let rings = ref false

(* Veil-Pulse opt-in (--pulse): escale runs with the epoch sampler
   armed (fixed interval below) and per-interval series in the JSON;
   pulse-off runs touch no sampler state, so their schedules stay
   byte-identical. *)
let pulse = ref false
let pulse_interval = 400_000

(* One JSON record per run, newest first, for each array of the
   [emit_json] document. *)
let recorded : Obs.Json.t list ref = ref []

let record ~experiment (s : D.stats) =
  if !json_mode then
    recorded :=
      Obj
        [ ("experiment", String experiment); ("workload", String s.D.workload);
          ("mode", String (D.mode_to_string s.D.mode)); ("cycles", Int s.D.cycles);
          ("seconds", Fixed (6, s.D.seconds)); ("compute_cycles", Int s.D.compute_cycles);
          ("kernel_cycles", Int s.D.kernel_cycles); ("switch_cycles", Int s.D.switch_cycles);
          ("copy_cycles", Int s.D.copy_cycles); ("monitor_cycles", Int s.D.monitor_cycles);
          ("crypto_cycles", Int s.D.crypto_cycles); ("io_cycles", Int s.D.io_cycles);
          ("syscalls", Int s.D.syscalls); ("vm_exits", Int s.D.vm_exits);
          ("domain_switches", Int s.D.domain_switches); ("audit_records", Int s.D.audit_records);
          ("log_appends", Int s.D.log_appends) ]
      :: !recorded;
  s

(* Micro-benchmark results (bench/micro.ml) ride along in the same
   JSON document as ns-per-run estimates. *)
let micro_recorded : Obs.Json.t list ref = ref []

let record_micro ~name ~ns_per_run =
  if !json_mode then
    micro_recorded :=
      Obj [ ("name", String name); ("ns_per_run", Fixed (1, ns_per_run)) ] :: !micro_recorded

(* E-scale results ride along too: one record per (bench, vcpu count).
   The "pulse" key is present only for pulse-armed runs, so pulse-off
   JSON stays byte-compatible with earlier baselines. *)
let escale_recorded : Obs.Json.t list ref = ref []

let record_escale ~bench ~nvcpus ~ops ~ops_per_s ~serialized_pct ~pulse_series =
  if !json_mode then
    escale_recorded :=
      Obj
        ([ ("bench", Obs.Json.String bench); ("vcpus", Int nvcpus); ("ops", Int ops);
           ("ops_per_s", Fixed (1, ops_per_s)); ("serialized_pct", Fixed (1, serialized_pct));
           ("rings", Bool !rings) ]
        @ match pulse_series with Some p -> [ ("pulse", p) ] | None -> [])
      :: !escale_recorded

(* E-fleet runs record their full fleet reports here (see [efleet]
   below). *)
let efleet_recorded : Obs.Json.t list ref = ref []

let emit_json () =
  if !json_mode then
    Printf.printf "\n%s\n"
      (Obs.Json.to_string
         (Obj
            [ ("seed", Int !seed); ("veil_bench", List (List.rev !recorded));
              ("veil_micro", List (List.rev !micro_recorded));
              ("veil_escale", List (List.rev !escale_recorded));
              ("veil_efleet", List (List.rev !efleet_recorded)) ]))

(* --- E1: initialization time (§9.1) --- *)

let e1 ?(npages = 131072) () =
  header "E1  CVM boot / Veil initialization time (§9.1)"
    "+~2 s over native CVM boot (13%); >70% of the increase is the RMPADJUST sweep";
  Printf.printf "guest memory: %d MB (%d frames); paper used 2 GB\n" (npages / 256) npages;
  let native = Veil_core.Boot.boot_native ~npages ~seed:77 () in
  let veil = Veil_core.Boot.boot_veil ~npages ~seed:77 () in
  let n = native.Veil_core.Boot.n_boot_cycles and v = veil.Veil_core.Boot.boot_cycles in
  let delta = v - n in
  (* scale the per-page work up to the paper's 2 GB guest *)
  let scale = 524288.0 /. float_of_int npages in
  let delta_2gb = float_of_int delta *. scale in
  (* analytic cost of the RMPADJUST sweep from the layout (2 adjusts
     per OS frame, 1 per service frame, one cold touch each) *)
  let l = veil.Veil_core.Boot.layout in
  let sz r = Veil_core.Layout.region_size r in
  let os_frames =
    sz l.Veil_core.Layout.kernel_text + sz l.Veil_core.Layout.kernel_data
    + sz l.Veil_core.Layout.kernel_free + sz l.Veil_core.Layout.idcb_region
  in
  let svc_frames = sz l.Veil_core.Layout.svc_region + sz l.Veil_core.Layout.log_region in
  let sweep =
    (os_frames * ((2 * C.rmpadjust_insn) + C.rmpadjust_page_touch))
    + (svc_frames * (C.rmpadjust_insn + C.rmpadjust_page_touch))
  in
  let sweep_fraction = float_of_int sweep /. float_of_int delta in
  Printf.printf "native CVM boot (guest work measured) : %10d cycles (%.3f s)\n" n (seconds n);
  Printf.printf "Veil CVM boot                         : %10d cycles (%.3f s)\n" v (seconds v);
  Printf.printf "Veil initialization delta             : %10d cycles (%.3f s)\n" delta (seconds delta);
  Printf.printf "delta scaled to a 2 GB guest          : %.2f s   (paper: ~2 s)\n"
    (delta_2gb /. float_of_int C.freq_hz);
  Printf.printf "share spent in VeilMon's sweep        : %.0f%%    (paper: >70%%)\n"
    (100.0 *. sweep_fraction);
  Printf.printf "increase over full native boot (~%.1f s): %.1f%%  (paper: 13%%)\n"
    (float_of_int C.native_cvm_boot /. float_of_int C.freq_hz)
    (100.0 *. delta_2gb /. float_of_int C.native_cvm_boot)

(* --- E2: domain switch cost (§9.1) --- *)

let e2 () =
  header "E2  Hypervisor-relayed domain switch cost (§9.1)"
    "7135 cycles per switch; plain VMCALL round trip 1100 cycles";
  let sys = Veil_core.Boot.boot_veil ~npages:2048 ~seed:3 () in
  let vcpu = sys.Veil_core.Boot.vcpu in
  let iterations = 10_000 in
  let before = C.read_bucket vcpu.Sevsnp.Vcpu.counter C.Switch in
  for _ = 1 to iterations / 2 do
    Veil_core.Monitor.domain_switch sys.Veil_core.Boot.mon vcpu ~target:Veil_core.Privdom.Mon;
    Veil_core.Monitor.domain_switch sys.Veil_core.Boot.mon vcpu ~target:Veil_core.Privdom.Unt
  done;
  let total = C.read_bucket vcpu.Sevsnp.Vcpu.counter C.Switch - before in
  Printf.printf "%d switches between the OS and VeilMon\n" iterations;
  Printf.printf "average domain switch : %5d cycles  (paper: 7135)\n" (total / iterations);
  Printf.printf "plain VMCALL roundtrip: %5d cycles  (paper: ~1100)\n" C.vmcall_roundtrip;
  Printf.printf "breakdown: %s\n"
    (String.concat " + "
       (List.map2 (fun label leg -> Printf.sprintf "%s %d" label (C.switch_cost leg))
          [ "exit"; "VMSA save"; "GHCB"; "host"; "enter"; "restore" ] C.domain_switch_legs))

(* --- E3: background system impact (§9.1) --- *)

let e3 ?(scale = 1) () =
  header "E3  Background impact under normal execution (§9.1)"
    "SPEC CPU, memcached, NGINX: <2% difference between native CVM and Veil CVM";
  Printf.printf "%-12s %14s %14s %10s\n" "program" "native cycles" "veil cycles" "overhead";
  List.iter
    (fun w ->
      let native = record ~experiment:"e3" (D.run ~scale ~seed:!seed D.Native w) in
      let veil = record ~experiment:"e3" (D.run ~scale ~seed:!seed D.Veil_background w) in
      Printf.printf "%-12s %14d %14d %9.2f%%   (paper: <2%%)\n" w.W.Workload.name native.D.cycles
        veil.D.cycles (D.overhead_pct ~baseline:native veil))
    (W.Registry.background_programs ())

(* --- E4: enclave system call costs (Fig. 4 / Table 3) --- *)

let e4 ?(iterations = 400) () =
  header "E4  Enclave system call redirection cost (Fig. 4, Table 3)"
    "popular syscalls are 3.3x - 7.1x slower from an enclave";
  Printf.printf "%-8s %12s %12s %9s %14s\n" "syscall" "native cyc" "enclave cyc" "slowdown" "paper-range";
  List.iter
    (fun sb ->
      let w = W.Syscall_bench.workload_of ~iterations sb in
      let native = D.run ~npages:4096 ~seed:!seed D.Native w in
      let enc = D.run ~npages:4096 ~seed:!seed D.Enclave w in
      (* subtract enclave creation by measuring per-iteration deltas on
         large iteration counts; creation is amortized *)
      let per_native = native.D.cycles / iterations in
      let per_enc = enc.D.cycles / iterations in
      Printf.printf "%-8s %12d %12d %8.1fx   (3.3x - 7.1x)\n" sb.W.Syscall_bench.sb_name
        per_native per_enc
        (float_of_int per_enc /. float_of_int per_native))
    W.Syscall_bench.all

(* --- E5: shielded real-world programs (Fig. 5 / Table 4) --- *)

let e5 ?(scale = 1) () =
  header "E5  Shielding real-world programs with VeilS-ENC (Fig. 5, Table 4)"
    "overheads 4.9% - 63.9%; exit rates 0.08k/35.5k/9.3k/4.8k/22.4k per second";
  let paper = [ ("gzip", 4.9, 0.08); ("unqlite", 30.0, 35.5); ("mbedtls", 10.0, 9.3);
                ("lighttpd", 42.0, 4.8); ("sqlite", 63.9, 22.4) ] in
  Printf.printf "%-10s %9s %9s | %9s %9s | %8s %8s\n" "program" "ovh meas" "ovh paper" "exit/s ms"
    "exit/s pp" "redirect" "exit";
  List.iter
    (fun w ->
      let native = record ~experiment:"e5" (D.run ~scale ~seed:!seed D.Native w) in
      let enc = record ~experiment:"e5" (D.run ~scale ~seed:!seed D.Enclave w) in
      let st = Option.get enc.D.enclave in
      let exits =
        st.Enclave_sdk.Runtime.enclave_exits + st.Enclave_sdk.Runtime.interrupts_while_inside
      in
      let p_ovh, p_rate =
        match List.assoc_opt w.W.Workload.name (List.map (fun (n, a, b) -> (n, (a, b))) paper) with
        | Some (a, b) -> (a, b)
        | None -> (0.0, 0.0)
      in
      let extra = enc.D.cycles - native.D.cycles in
      let redirect_share =
        if extra <= 0 then 0.0
        else 100.0 *. float_of_int st.Enclave_sdk.Runtime.redirect_cycles /. float_of_int extra
      in
      let exit_share =
        if extra <= 0 then 0.0
        else 100.0 *. float_of_int st.Enclave_sdk.Runtime.exit_cycles /. float_of_int extra
      in
      Printf.printf "%-10s %8.1f%% %8.1f%% | %8.1fk %8.1fk | %7.0f%% %7.0f%%\n" w.W.Workload.name
        (D.overhead_pct ~baseline:native enc)
        p_ovh
        (D.rate_per_second enc exits /. 1000.0)
        p_rate redirect_share exit_share)
    (W.Registry.enclave_programs ());
  print_endline "(redirect/exit: share of the enclave overhead, cf. Fig. 5's stacked bars)"

(* --- E6: protected system auditing (Fig. 6 / Table 5) --- *)

let e6 ?(scale = 1) () =
  header "E6  System audit log protection with VeilS-LOG (Fig. 6, Table 5)"
    "Kaudit 0.3%-8.7% vs VeilS-LOG 1.4%-18.7%; log rates 1.5k/1.8k/61k/2.3k/38k per second";
  let paper =
    [ ("openssl", (0.3, 1.4, 1.5)); ("7zip", (0.4, 1.6, 1.8)); ("memcached", (8.7, 18.7, 61.0));
      ("sqlite", (0.9, 3.0, 2.3)); ("nginx", (5.5, 12.0, 38.0)) ]
  in
  Printf.printf "%-10s | %8s %8s | %8s %8s | %9s %9s\n" "program" "kaudit" "paper" "veils" "paper"
    "logs/s" "paper";
  List.iter
    (fun w ->
      let base = record ~experiment:"e6" (D.run ~scale ~seed:!seed D.Veil_background w) in
      let ka = record ~experiment:"e6" (D.run ~scale ~seed:!seed D.Kaudit w) in
      let vl = record ~experiment:"e6" (D.run ~scale ~seed:!seed D.Veils_log w) in
      let pk, pv, pr = try List.assoc w.W.Workload.name paper with Not_found -> (0., 0., 0.) in
      Printf.printf "%-10s | %7.2f%% %7.2f%% | %7.2f%% %7.2f%% | %8.1fk %8.1fk\n" w.W.Workload.name
        (D.overhead_pct ~baseline:base ka)
        pk
        (D.overhead_pct ~baseline:base vl)
        pv
        (D.rate_per_second vl vl.D.audit_records /. 1000.0)
        pr)
    (W.Registry.audit_programs ())

(* --- E7: secure module load/unload (CS1, §9.2) --- *)

let e7 ?(reps = 100) () =
  header "E7  Secure kernel module load/unload with VeilS-KCI (CS1, §9.2)"
    "+~55k cycles per load and unload: +5.7% load time, +4.2% unload time";
  (* 4728-byte module binary, 24 KB installed (2 text + 4 data pages) *)
  let measure sys_kernel =
    let load_total = ref 0 and unload_total = ref 0 in
    let vcpu = Kern.vcpu sys_kernel in
    for i = 0 to reps - 1 do
      let img =
        Guest_kernel.Kmodule.build (Kern.rng sys_kernel)
          ~name:(Printf.sprintf "bench%d" i)
          ~text_size:4728 ~data_size:14000 ~symbols:[ "ksym_0"; "ksym_1" ]
      in
      Kern.vendor_sign_module sys_kernel img;
      let t0 = Sevsnp.Vcpu.rdtsc vcpu in
      (match Kern.load_module sys_kernel img with Ok _ -> () | Error e -> failwith e);
      let t1 = Sevsnp.Vcpu.rdtsc vcpu in
      (match Kern.unload_module sys_kernel img.Guest_kernel.Kmodule.name with
      | Ok () -> ()
      | Error e -> failwith e);
      let t2 = Sevsnp.Vcpu.rdtsc vcpu in
      load_total := !load_total + (t1 - t0);
      unload_total := !unload_total + (t2 - t1)
    done;
    (!load_total / reps, !unload_total / reps)
  in
  let native = Veil_core.Boot.boot_native ~npages:4096 ~seed:7 () in
  let nl, nu = measure native.Veil_core.Boot.n_kernel in
  let veil = Veil_core.Boot.boot_veil ~npages:4096 ~seed:7 () in
  let vl, vu = measure veil.Veil_core.Boot.kernel in
  Printf.printf "module: 4728-byte binary, 24 KB installed, %d repetitions\n" reps;
  Printf.printf "load  : native %7d  veils-kci %7d  delta %6d cycles  +%.1f%%  (paper: +55k, +5.7%%)\n"
    nl vl (vl - nl)
    (100.0 *. float_of_int (vl - nl) /. float_of_int nl);
  Printf.printf "unload: native %7d  veils-kci %7d  delta %6d cycles  +%.1f%%  (paper: +55k, +4.2%%)\n"
    nu vu (vu - nu)
    (100.0 *. float_of_int (vu - nu) /. float_of_int nu)

(* --- E8/E9/E10: security validation (Tables 1-2, §8.3) --- *)

let run_attack_table title paper attacks =
  header title paper;
  let blocked = ref 0 in
  List.iter
    (fun a ->
      let o = Veil_attacks.Attacks.run a in
      if Veil_attacks.Attacks.is_blocked o then incr blocked;
      Printf.printf "  %-36s %s\n" (Veil_attacks.Attacks.name a)
        (Veil_attacks.Attacks.outcome_to_string o))
    attacks;
  Printf.printf "defended: %d/%d\n" !blocked (List.length attacks)

let e8 () =
  run_attack_table "E8  Attacks against the Veil framework (Table 1)"
    "all framework attacks defended" (Veil_attacks.Attacks.framework_attacks ())

let e9 () =
  run_attack_table "E9  Attacks against enclaves (Table 2)" "all enclave attacks defended"
    (Veil_attacks.Attacks.enclave_attacks ())

let e10 () =
  run_attack_table "E10 Experimental validation (§8.3)"
    "both attacks end in a CVM halt with continuous #NPF" (Veil_attacks.Attacks.validation_attacks ())

(* --- E11: LTP-style syscall robustness (§7) --- *)

let e11 () =
  header "E11 LTP-style system call robustness of the enclave SDK (§7)"
    "85/96 supported calls pass all robustness cases; unsupported calls kill the enclave";
  let sys = Veil_core.Boot.boot_veil ~npages:4096 ~seed:13 () in
  let results = Enclave_sdk.Ltp.run_all sys in
  let summary = Enclave_sdk.Ltp.summarize results in
  List.iter
    (fun r ->
      if r.Enclave_sdk.Ltp.passed < r.Enclave_sdk.Ltp.total then
        Printf.printf "  %-14s %d/%d%s\n"
          (S.to_string r.Enclave_sdk.Ltp.lsys)
          r.Enclave_sdk.Ltp.passed r.Enclave_sdk.Ltp.total
          (if r.Enclave_sdk.Ltp.killed then "  (enclave killed: unsupported)" else ""))
    results;
  Printf.printf "calls passing their whole battery: %d/%d   (paper: 85/96)\n"
    summary.Enclave_sdk.Ltp.calls_all_passed summary.Enclave_sdk.Ltp.calls_total;
  Printf.printf "individual cases passed          : %d/%d\n" summary.Enclave_sdk.Ltp.cases_passed
    summary.Enclave_sdk.Ltp.cases_total

(* --- Ablations (DESIGN.md §5) --- *)

let ablate ?(scale = 1) () =
  header "A   Ablations: monitor design trade-offs (§9.1 analysis, §10 future work)"
    "Cds x Nds trade-off; exitless/batched syscalls as future work";
  (* A1: what the E5 overheads become under different switch costs *)
  print_endline "A1. Enclave overhead sensitivity to the domain-switch cost (recomputed from";
  print_endline "    measured runs; 7135 = Veil, ~3600 = hypervisor-internal monitor, 1100 =";
  print_endline "    plain VMCALL, 150 = Nested-Kernel-style ring switch):";
  Printf.printf "    %-10s %9s %9s %9s %9s\n" "program" "7135cyc" "3600cyc" "1100cyc" "150cyc";
  List.iter
    (fun w ->
      let native = record ~experiment:"ablate" (D.run ~scale ~seed:!seed D.Native w) in
      let enc = record ~experiment:"ablate" (D.run ~scale ~seed:!seed D.Enclave w) in
      let st = Option.get enc.D.enclave in
      let switches = st.Enclave_sdk.Runtime.enclave_exits + st.Enclave_sdk.Runtime.enclave_entries in
      let recompute per_switch =
        let extra =
          enc.D.cycles - native.D.cycles - (switches * 7135) + (switches * per_switch)
        in
        100.0 *. float_of_int extra /. float_of_int native.D.cycles
      in
      Printf.printf "    %-10s %8.1f%% %8.1f%% %8.1f%% %8.1f%%\n" w.W.Workload.name (recompute 7135)
        (recompute 3600) (recompute 1100) (recompute 150))
    [ W.Dbs.sqlite (); W.Dbs.unqlite () ];
  (* A2: syscall batching (§10) — measured with the SDK's real
     ocall_batch implementation *)
  print_endline "";
  print_endline "A2. Syscall batching (§10 future work), measured with Runtime.ocall_batch:";
  print_endline "    1024 small writes issued from an enclave in batches of k:";
  let sys = Veil_core.Boot.boot_veil ~npages:4096 ~seed:3 () in
  let proc = Kern.spawn sys.Veil_core.Boot.kernel in
  let rt =
    match Enclave_sdk.Runtime.create sys ~binary:(Bytes.make 4096 'B') proc with
    | Ok rt -> rt
    | Error e -> failwith e
  in
  let fd =
    Enclave_sdk.Runtime.run rt (fun rt ->
        match Enclave_sdk.Runtime.ocall rt S.Open [ K.Str "/tmp/batch.log"; K.Int 0x42; K.Int 0o644 ] with
        | K.RInt fd -> fd
        | _ -> failwith "open")
  in
  let payload = Bytes.make 64 'x' in
  let n = 1024 in
  List.iter
    (fun k ->
      let vcpu = sys.Veil_core.Boot.vcpu in
      let t0 = Sevsnp.Vcpu.rdtsc vcpu in
      Enclave_sdk.Runtime.run rt (fun rt ->
          for _ = 1 to n / k do
            if k = 1 then ignore (Enclave_sdk.Runtime.ocall rt S.Write [ K.Int fd; K.Buf payload ])
            else
              ignore
                (Enclave_sdk.Runtime.ocall_batch rt
                   (List.init k (fun _ -> (S.Write, [ K.Int fd; K.Buf payload ]))))
          done);
      let per_call = (Sevsnp.Vcpu.rdtsc vcpu - t0) / n in
      Printf.printf "    k=%-3d %6d cycles/call\n" k per_call)
    [ 1; 2; 4; 8; 16 ];
  (* A4: exitless syscalls + LibOS buffering (§10), measured *)
  print_endline "";
  print_endline "A4. Exitless syscalls (worker VCPU drains a shared ring) and LibOS buffered";
  print_endline "    stdio vs plain redirection — per-call cost of 512 small writes:";
  let sys4 = Veil_core.Boot.boot_veil ~npages:4096 ~seed:5 () in
  (match (Kern.hooks sys4.Veil_core.Boot.kernel).Guest_kernel.Hooks.h_vcpu_boot ~vcpu_id:1 with
  | Ok () -> ()
  | Error e -> failwith e);
  let worker = List.nth (P.vcpus sys4.Veil_core.Boot.platform) 1 in
  let rt4 =
    match
      Enclave_sdk.Runtime.create sys4 ~binary:(Bytes.make 4096 'E')
        (Kern.spawn sys4.Veil_core.Boot.kernel)
    with
    | Ok rt -> rt
    | Error e -> failwith e
  in
  let n4 = 512 in
  let payload4 = Bytes.make 64 'y' in
  let measure name f =
    let vcpu = sys4.Veil_core.Boot.vcpu in
    let t0 = Sevsnp.Vcpu.rdtsc vcpu in
    Enclave_sdk.Runtime.run rt4 f;
    Printf.printf "    %-22s %6d cycles/call (enclave VCPU)\n" name ((Sevsnp.Vcpu.rdtsc vcpu - t0) / n4)
  in
  measure "plain redirection" (fun rt ->
      let fd =
        match Enclave_sdk.Runtime.ocall rt S.Open [ K.Str "/tmp/a4a"; K.Int 0x42; K.Int 0o644 ] with
        | K.RInt fd -> fd
        | _ -> failwith "open"
      in
      for _ = 1 to n4 do
        ignore (Enclave_sdk.Runtime.ocall rt S.Write [ K.Int fd; K.Buf payload4 ])
      done);
  measure "exitless ring" (fun rt ->
      let ring = Result.get_ok (Enclave_sdk.Exitless.create rt ~slots:32) in
      let fd =
        match Enclave_sdk.Exitless.await ring ~worker
                (Result.get_ok (Enclave_sdk.Exitless.submit ring S.Open [ K.Str "/tmp/a4b"; K.Int 0x42; K.Int 0o644 ]))
        with
        | K.RInt fd -> fd
        | _ -> failwith "open"
      in
      for _ = 1 to n4 / 32 do
        let tickets =
          List.init 32 (fun _ ->
              Result.get_ok (Enclave_sdk.Exitless.submit ring S.Write [ K.Int fd; K.Buf payload4 ]))
        in
        ignore (Enclave_sdk.Exitless.drain_on ring worker);
        List.iter (fun t -> ignore (Enclave_sdk.Exitless.poll ring t)) tickets
      done);
  measure "libos buffered stdio" (fun rt ->
      let libos = Enclave_sdk.Libos.create rt in
      let f = Result.get_ok (Enclave_sdk.Libos.fopen libos "/tmp/a4c" ~mode:`Write) in
      for _ = 1 to n4 do
        ignore (Result.get_ok (Enclave_sdk.Libos.fwrite libos f payload4))
      done;
      Result.get_ok (Enclave_sdk.Libos.fclose libos f));
  print_endline "";
  (* A3: log storage sizing (§6.3) *)
  print_endline "";
  print_endline "A3. VeilS-LOG reserved storage sizing (§6.3: size for the retrieval interval):";
  List.iter
    (fun frames ->
      let sys = Veil_core.Boot.boot_veil ~npages:2048 ~log_frames:frames ~seed:3 () in
      let kernel = sys.Veil_core.Boot.kernel in
      Guest_kernel.Audit.set_rules (Kern.audit kernel) [ S.Open ];
      let proc = Kern.spawn kernel in
      for i = 0 to 299 do
        ignore (Kern.invoke kernel proc S.Open [ K.Str (Printf.sprintf "/tmp/l%d" i); K.Int 0x42; K.Int 0o644 ])
      done;
      let stats = Veil_core.Slog.stats sys.Veil_core.Boot.slog in
      Printf.printf "    %2d frame(s) (%5d B): stored %3d, refused %3d of 300 events\n" frames
        (frames * 4096) stats.Veil_core.Slog.appended stats.Veil_core.Slog.dropped_full)
    [ 1; 2; 4; 16 ]

(* --- E-scale: SMP throughput scaling (Veil-SMP, §5) ---

   The measurement harness lives in {!Workloads.Escale} so veilctl's
   scope/report commands regenerate exactly the numbers these tables
   print; bench only drives it and formats the output. *)

module Es = Workloads.Escale

let escale () =
  header "E-scale  SMP throughput scaling with Veil-SMP (§5 AP bring-up)"
    "monitor-relayed AP boot; deterministic interleaving; VeilMon serializes log/IDCB work";
  let counts = Es.vcpu_counts () in
  Printf.printf "interleaver: seeded(%d); guest seed %d; VCPU counts: %s; rings: %s; pulse: %s\n"
    Es.inter_seed !seed
    (String.concat "," (List.map string_of_int counts))
    (if !rings then "on (Veil-Ring batched submission)" else "off")
    (if !pulse then Printf.sprintf "on (interval %d cycles)" pulse_interval else "off");
  let run_table name ~spawn_work ~ops =
    Printf.printf "\n%s (%d ops total, strong scaling):\n" name ops;
    Printf.printf "  %5s %14s %9s %9s %11s %12s %10s %7s\n" "vcpus" "throughput" "speedup"
      "hw-amdahl" "serialized%" "wall Mcyc" "mon-share" "steals";
    let base = ref None in
    let serial_frac = ref 0.0 in
    List.iter
      (fun nv ->
        let pulse_arg = if !pulse then Some pulse_interval else None in
        let (r : Es.result), sys =
          Es.measure ~rings:!rings ?pulse:pulse_arg ~nvcpus:nv ~seed:!seed ~spawn_work ()
        in
        let tp = Es.throughput r in
        let ser = Es.serialized_pct r in
        record_escale ~bench:name ~nvcpus:nv ~ops:r.Es.es_ops ~ops_per_s:tp
          ~serialized_pct:ser
          ~pulse_series:(if !pulse then Some (Workloads.Escale.pulse_json sys) else None);
        if !pulse then begin
          let pu = sys.Veil_core.Boot.platform.P.pulse in
          Printf.printf "  pulse @%d VCPUs: %d intervals captured (%d retained), %d anchors\n" nv
            (Obs.Pulse.captured pu) (Obs.Pulse.retained pu) (Obs.Pulse.anchors_emitted pu);
          List.iter
            (fun (br : Obs.Pulse.burn_report) ->
              Printf.printf
                "    SLO %s: %d/%d bad (budget %.1f), burn %.2fx%s, %d crossing(s)\n"
                br.Obs.Pulse.br_name br.Obs.Pulse.br_bad br.Obs.Pulse.br_total
                br.Obs.Pulse.br_budget br.Obs.Pulse.br_burn
                (if br.Obs.Pulse.br_crossed then " (over budget)" else "")
                br.Obs.Pulse.br_crossings)
            (Obs.Pulse.burn_reports pu)
        end;
        let tp0 = match !base with None -> base := Some tp; tp | Some t -> t in
        if nv = 1 then serial_frac := float_of_int r.Es.es_mon /. float_of_int r.Es.es_busy;
        (* The simulator charges VeilMon work to the calling VCPU, so
           the measured speedup is the no-contention optimum; hw-amdahl
           is what one serialized VeilMon instance (a single VMPL0
           monitor, one RMP lock) would allow on hardware, taking the
           Monitor+Switch share of the 1-VCPU run as the serial
           fraction.  serialized% is the same slice measured directly
           by the monitor's entry ledger (Veil-Scope) instead of
           inferred from the 1-VCPU bucket share. *)
        let s = !serial_frac in
        let ceiling = Es.amdahl_ceiling ~serial_frac:s ~nvcpus:nv in
        Printf.printf "  %5d %11.1f k/s %8.2fx %8.2fx %10.1f%% %12.2f %9.1f%% %7d\n" nv
          (tp /. 1000.0) (tp /. tp0) ceiling ser
          (float_of_int r.Es.es_wall /. 1e6)
          (100.0 *. float_of_int r.Es.es_mon /. float_of_int r.Es.es_busy)
          r.Es.es_steals;
        if nv = List.fold_left max 1 counts then begin
          Printf.printf
            "  Veil-Prof @%d VCPUs: VeilMon os_call self=%d cycles over %d calls; every\n" nv
            r.Es.es_prof_mon_self r.Es.es_prof_mon_hits;
          Printf.printf
            "  call funnels through the single VeilMon instance (7135-cycle relayed\n";
          Printf.printf
            "  switch each way), so hardware speedup is capped at %.2fx by that slice.\n"
            ceiling;
          (match Sys.getenv_opt "VEIL_ESCALE_JOURNAL" with
          | Some path ->
              let oc = open_out (Printf.sprintf "%s.%s" path
                                   (String.map (function ' ' -> '-' | c -> c) name)) in
              output_string oc r.Es.es_journal;
              output_char oc '\n';
              close_out oc
          | None -> ());
          (* reproducibility: the schedule and the numbers must replay *)
          let (r2 : Es.result), _ =
            Es.measure ~rings:!rings ?pulse:pulse_arg ~nvcpus:nv ~seed:!seed ~spawn_work ()
          in
          if r2.Es.es_journal <> r.Es.es_journal || Es.throughput r2 <> tp then
            failwith "E-scale: same seed produced a different schedule or throughput";
          Printf.printf "  replay @%d VCPUs: identical schedule (%d steps) and throughput — OK\n"
            nv (String.length r.Es.es_journal)
        end)
      counts
  in
  run_table "syscall-bench" ~spawn_work:(Es.syscall_work ~ops_total:4096) ~ops:4096;
  run_table "http-server" ~spawn_work:(Es.http_work ~requests:256) ~ops:256

(* --- E-fleet: multi-guest host under open-loop traffic (ISSUE 10) --- *)

let record_efleet ~label ~util (r : Fleet.report) =
  if !json_mode then
    efleet_recorded :=
      Obj
        [ ("label", String label); ("guests", Int (Array.length r.Fleet.r_guests));
          ("util", Fixed (2, util)); ("report", Fleet.report_json r) ]
      :: !efleet_recorded

let efleet ?(scale = 1) () =
  header "E-fleet  Multi-guest host: open-loop traffic against isolated Veil guests"
    "fleet-provisioned CVMs; per-tenant isolation and tails must hold under shared-host load";
  let base guests vcpus requests =
    {
      Fleet.default with
      guests;
      vcpus;
      seed = !seed;
      requests = requests * scale;
      rings = !rings;
      pulse = (if !pulse then Some pulse_interval else None);
    }
  in
  Printf.printf "workload: http; seed %d; rings: %s; pulse: %s; requests scale x%d\n" !seed
    (if !rings then "on" else "off")
    (if !pulse then "on" else "off")
    scale;
  (* per-cell calibration (closed-loop probe fleet), then an open-loop
     drive at 60% of measured capacity *)
  let grid = [ (1, 4); (2, 4); (4, 4) ] in
  Printf.printf
    "\nopen loop at 60%% of calibrated capacity (merged-histogram sojourn, cycles):\n";
  Printf.printf "  %6s %6s %10s %10s %10s %10s %10s %9s\n" "guests" "vcpus" "offered" "achieved"
    "p50" "p99" "p999" "monQ/busy";
  List.iter
    (fun (g, v) ->
      let cfg = base g v (g * v * 24) in
      let svc = Fleet.calibrate cfg in
      let rate = Fleet.rate_for cfg ~utilization:0.6 ~mean_service_cycles:svc in
      let r = Fleet.run { cfg with process = Fleet.Arrival.Poisson { rate } } in
      record_efleet ~label:"open-0.6" ~util:0.6 r;
      let queued, busy =
        Array.fold_left
          (fun (q, b) gr ->
            ( q + gr.Fleet.gr_wait.Veil_core.Monitor.ws_queued_cycles,
              b + gr.Fleet.gr_wait.Veil_core.Monitor.ws_busy_cycles ))
          (0, 0) r.Fleet.r_guests
      in
      Printf.printf "  %6d %6d %10.0f %10.0f %10d %10d %10d %8.1f%%\n" g v r.Fleet.r_offered
        r.Fleet.r_throughput r.Fleet.r_p50 r.Fleet.r_p99 r.Fleet.r_p999
        (if busy = 0 then 0.0 else 100.0 *. float_of_int queued /. float_of_int busy))
    grid;
  Printf.printf
    "  monQ/busy: VeilMon queued cycles over VeilMon busy cycles, summed over guests\n\
    \  (a ratio, may exceed 100%%; not a share of time, not fleet queueing)\n";
  (* coordinated omission: the same overloaded box measured both ways *)
  let co_cfg = base 4 4 384 in
  let closed = Fleet.run { co_cfg with mode = Fleet.Closed_loop } in
  record_efleet ~label:"closed" ~util:0.0 closed;
  let over_rate = Fleet.rate_for co_cfg ~utilization:1.5 ~mean_service_cycles:closed.Fleet.r_mean in
  let open_over =
    Fleet.run { co_cfg with process = Fleet.Arrival.Poisson { rate = over_rate } }
  in
  record_efleet ~label:"open-1.5" ~util:1.5 open_over;
  Printf.printf "\ncoordinated omission (4 guests x 4 VCPUs, 1.5x overload):\n";
  Printf.printf "  closed loop (what a waiting client reports): p99 %10d cycles, %8.0f rps\n"
    closed.Fleet.r_p99 closed.Fleet.r_throughput;
  Printf.printf "  open loop   (what arrivals actually suffer): p99 %10d cycles, %8.0f rps\n"
    open_over.Fleet.r_p99 open_over.Fleet.r_throughput;
  Printf.printf "  omitted tail: open-loop p99 is %.1fx the closed-loop p99\n"
    (float_of_int open_over.Fleet.r_p99 /. float_of_int (max 1 closed.Fleet.r_p99));
  (* bursty arrivals at the same mean rate *)
  let rate06 = Fleet.rate_for co_cfg ~utilization:0.6 ~mean_service_cycles:closed.Fleet.r_mean in
  let poisson =
    Fleet.run { co_cfg with process = Fleet.Arrival.Poisson { rate = rate06 } }
  in
  let mmpp =
    Fleet.run
      {
        co_cfg with
        (* same mean as rate06: (0.5r*2ms + 2.25r*0.8ms)/2.8ms = r.
           Dwells must be short against the run length or the process
           never leaves its opening low state and "bursty" quietly
           means "underloaded". *)
        process =
          Fleet.Arrival.Mmpp
            { low = rate06 /. 2.0; high = rate06 *. 2.25; dwell_low = 0.002; dwell_high = 0.0008 };
      }
  in
  record_efleet ~label:"mmpp-0.6" ~util:0.6 mmpp;
  Printf.printf "\nburstiness at the same mean offered load (%.0f rps):\n" rate06;
  Printf.printf "  poisson: p99 %10d  p999 %10d\n" poisson.Fleet.r_p99 poisson.Fleet.r_p999;
  Printf.printf "  mmpp   : p99 %10d  p999 %10d  (bursts queue; the mean hides them)\n"
    mmpp.Fleet.r_p99 mmpp.Fleet.r_p999;
  (* per-guest seeds + replay identity on the headline cell *)
  let headline = { co_cfg with process = Fleet.Arrival.Poisson { rate = rate06 } } in
  let r1 = Fleet.run headline and r2 = Fleet.run headline in
  if Obs.Json.(to_string (Fleet.report_json r1) <> to_string (Fleet.report_json r2)) then
    failwith "E-fleet: same config produced a different report";
  Printf.printf "\nreplay: per-guest seeds [%s] reproduce the report byte-for-byte — OK\n"
    (String.concat ";"
       (Array.to_list
          (Array.map (fun g -> string_of_int g.Fleet.gr_seed) r1.Fleet.r_guests)));
  Printf.printf "merged-registry digest: %s\n" r1.Fleet.r_merged_digest;
  (* fleet-scope attack oracle (E8/E9 extended): a compromised guest
     kernel must neither reach VeilMon nor move a co-tenant *)
  let oracle = Veil_attacks.Attacks.fleet_attacks () in
  Printf.printf "\nfleet-scope attack oracle:\n";
  List.iter
    (fun atk ->
      let o = Veil_attacks.Attacks.run atk in
      Printf.printf "  %-40s %s\n" (Veil_attacks.Attacks.name atk)
        (Veil_attacks.Attacks.outcome_to_string o);
      if not (Veil_attacks.Attacks.is_blocked o) then
        failwith ("E-fleet: attack not contained: " ^ Veil_attacks.Attacks.name atk))
    oracle
