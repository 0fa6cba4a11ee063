module FP = Chaos.Fault_plan
module T = Sevsnp.Types
module K = Guest_kernel.Kernel
module Kt = Guest_kernel.Ktypes
module S = Guest_kernel.Sysno
module B = Veil_core.Boot
module A = Veil_attacks.Attacks
module Rt = Enclave_sdk.Runtime
module Smp = Veil_core.Smp
module Rng = Veil_crypto.Rng

type workload_kind = Wl_boot | Wl_syscall | Wl_enclave | Wl_slog | Wl_pulse

let all_workloads = [ Wl_boot; Wl_syscall; Wl_enclave; Wl_slog; Wl_pulse ]

let workload_name = function
  | Wl_boot -> "boot"
  | Wl_syscall -> "syscall"
  | Wl_enclave -> "enclave"
  | Wl_slog -> "slog"
  | Wl_pulse -> "pulse"

let workload_of_name = function
  | "boot" -> Some Wl_boot
  | "syscall" -> Some Wl_syscall
  | "enclave" -> Some Wl_enclave
  | "slog" -> Some Wl_slog
  | "pulse" -> Some Wl_pulse
  | _ -> None

(* The classifier lives in the shared {!Chaos_outcome} module (used by
   Veil-Explore too); the driver re-exports the type with its historic
   name so callers and the JSON report are unchanged. *)
type outcome = Chaos_outcome.t =
  | Passed
  | Degraded of string
  | Halted of string
  | Watchdog of string
  | Corrupt of string
  | Crashed of string

let outcome_ok = Chaos_outcome.ok
let outcome_to_string = Chaos_outcome.to_string

type trial = {
  tr_workload : workload_kind;
  tr_seed : int;
  tr_outcome : outcome;
  tr_steps : int;
  tr_hits : (string * int) list;
  tr_plan : FP.t;
}

(* Per-site default probabilities.  Sites consulted once per world exit
   fire rarely (the guest takes thousands of exits per trial); sites
   consulted only on interrupt relays fire often (there are few).  All
   are far below the point where the guest's 6-attempt retry budgets
   could plausibly exhaust (p^7 per operation). *)
let default_prob = function
  | FP.Relay_drop | FP.Relay_dup | FP.Relay_reorder | FP.Relay_refuse -> 0.05
  | FP.Vmgexit_delay | FP.Vmgexit_refuse | FP.Spurious_exit -> 0.01
  | FP.Rmpadjust_fail | FP.Pvalidate_fail -> 0.02
  | FP.Spurious_npf | FP.Ghcb_corrupt -> 0.01
  | FP.Shared_bitflip -> 0.005
  | FP.Ring_slot_corrupt -> 0.02
  | FP.Pulse_export_tamper -> 0.25

(* Watchdog budget: a trial (boot sweep + workload, or the whole attack
   sweep) takes well under 100k world exits; a protocol livelock would
   spin past this in no time. *)
let trial_max_steps = 2_000_000

let make_plan ?(sites = FP.all_sites) ~seed () =
  let plan = FP.create ~max_steps:trial_max_steps ~seed () in
  List.iter (fun s -> FP.set_site plan s ~prob:(default_prob s) ()) sites;
  plan

(* Arm the plan on every guest booted inside [f] (workload drivers and
   attacks boot their own guests through [Boot.boot_veil]). *)
let with_plan plan f =
  let saved = !B.default_chaos in
  B.default_chaos := (fun () -> Some plan);
  Fun.protect ~finally:(fun () -> B.default_chaos := saved) f

exception Fail = Chaos_outcome.Fail

let corrupt = Chaos_outcome.corrupt
let classify = Chaos_outcome.classify

(* Guest boot parameters are FIXED per workload (same image, same
   layout every trial): all trial-to-trial variation comes from the
   fault plan, which is what makes seed replay byte-identical. *)
let trial_npages = 2048

(* --- boot: the §5.1 modified boot flow, then one sanity syscall --- *)

let run_boot () =
  let sys = B.boot_veil ~npages:trial_npages ~seed:31 () in
  let kernel = sys.B.kernel in
  let proc = K.spawn kernel in
  match K.invoke kernel proc S.Getpid [] with
  | Kt.RInt pid when pid > 0 -> Passed
  | Kt.RErr e -> Degraded ("getpid refused: " ^ Kt.errno_to_string e)
  | _ -> Corrupt "getpid returned a non-pid value"

(* --- syscall bench: file round-trips + interrupt relays --- *)

let run_syscall ~seed ~vcpus () =
  let sys = B.boot_veil ~npages:trial_npages ~seed:31 () in
  let kernel = sys.B.kernel and hv = sys.B.hv and vcpu = sys.B.vcpu in
  let payload = Rng.bytes (Rng.create (Rng.derive seed ~domain:Workload_input)) 512 in
  let degraded = ref None in
  let note e = if !degraded = None then degraded := Some e in
  let round_trip proc path =
    match K.invoke kernel proc S.Open [ Kt.Str path; Kt.Int 0x42; Kt.Int 0o644 ] with
    | Kt.RInt fd -> (
        (match K.invoke kernel proc S.Write [ Kt.Int fd; Kt.Buf payload ] with
        | Kt.RInt n when n = Bytes.length payload -> ()
        | Kt.RInt n -> corrupt "short write (%d of %d) with no error" n (Bytes.length payload)
        | Kt.RErr e -> note ("write refused: " ^ Kt.errno_to_string e)
        | _ -> corrupt "write returned a non-count value");
        ignore (K.invoke kernel proc S.Close [ Kt.Int fd ]);
        match K.invoke kernel proc S.Open [ Kt.Str path; Kt.Int 0; Kt.Int 0 ] with
        | Kt.RInt fd -> (
            (match K.invoke kernel proc S.Read [ Kt.Int fd; Kt.Int (Bytes.length payload) ] with
            | Kt.RBuf got ->
                if not (Bytes.equal got payload) then
                  corrupt "file %s read back different bytes than written" path
            | Kt.RErr e -> note ("read refused: " ^ Kt.errno_to_string e)
            | _ -> corrupt "read returned a non-buffer value");
            ignore (K.invoke kernel proc S.Close [ Kt.Int fd ]))
        | Kt.RErr e -> note ("reopen refused: " ^ Kt.errno_to_string e)
        | _ -> corrupt "open returned a non-fd value")
    | Kt.RErr e -> note ("open refused: " ^ Kt.errno_to_string e)
    | _ -> corrupt "open returned a non-fd value"
  in
  (* With --vcpus > 1, the same file round-trips run as per-VCPU
     workers under the deterministic interleaver: AP bring-up itself
     crosses the fault-injected monitor protocols, and every worker's
     syscalls now interleave with the others' mid-protocol. *)
  let relay () =
    (* Exercise the relay sites: the timer tick the OS would get.
       Drops/dups/reorders are legal hypervisor behaviour — the
       invariant is only that delivery never corrupts guest state. *)
    Hypervisor.Hv.inject_interrupt hv vcpu;
    (* And a tick landing while the monitor runs: the one case where
       the hypervisor must relay across domains, so relay_refuse is
       actually consulted (refusal at Vmpl0 is survivable — the
       monitor owns the handler frame). *)
    Veil_core.Monitor.domain_switch sys.B.mon vcpu ~target:Veil_core.Privdom.Mon;
    Hypervisor.Hv.inject_interrupt hv vcpu;
    Veil_core.Monitor.domain_switch sys.B.mon vcpu ~target:Veil_core.Privdom.Unt
  in
  if vcpus > 1 then begin
    let smp =
      try Smp.bring_up ~policy:(Hypervisor.Hv.Interleave.Seeded seed) sys ~nvcpus:vcpus ()
      with Failure e -> raise (Fail (Degraded e))
    in
    for w = 0 to vcpus - 1 do
      Smp.spawn ~vcpu:w smp
        ~name:(Printf.sprintf "chaos-sys-%d" w)
        (fun () ->
          let proc = K.spawn kernel in
          for i = 0 to (19 / vcpus) + 1 do
            round_trip proc (Printf.sprintf "/tmp/chaos%d-%d" w i);
            Guest_kernel.Sched.yield ()
          done)
    done;
    Smp.run smp;
    for _ = 0 to 19 do
      relay ()
    done
  end
  else begin
    (* single-VCPU: the pre-SMP schedule, byte-for-byte *)
    let proc = K.spawn kernel in
    for i = 0 to 19 do
      round_trip proc (Printf.sprintf "/tmp/chaos%d" i);
      relay ()
    done
  end;
  match !degraded with None -> Passed | Some e -> Degraded e

(* --- enclave: create, attest, heap round-trip, ocall, destroy --- *)

let run_enclave ~seed () =
  let sys = B.boot_veil ~npages:trial_npages ~seed:31 () in
  let proc = K.spawn sys.B.kernel in
  let binary = Rng.bytes (Rng.create (Rng.derive seed ~domain:Workload_input)) 8192 in
  match Rt.create sys ~binary proc with
  | Error e -> Degraded ("enclave create refused: " ^ e)
  | Ok rt ->
      let expected =
        Veil_core.Encsvc.measure_expected ~binary ~npages_heap:16 ~npages_stack:4
          ~base_va:Guest_kernel.Process.enclave_base
      in
      if not (Bytes.equal (Rt.measurement rt) expected) then
        Corrupt "enclave launch measurement diverged from the remote computation"
      else begin
        let inner =
          Rt.run rt (fun rt ->
              match Rt.malloc rt 256 with
              | None -> Degraded "enclave malloc refused"
              | Some va ->
                  let data = Bytes.init 256 (fun i -> Char.chr ((i * 7 + seed) land 0xFF)) in
                  Rt.write_data rt ~va data;
                  Rt.compute rt 50_000;
                  let got = Rt.read_data rt ~va ~len:256 in
                  if not (Bytes.equal got data) then
                    Corrupt "enclave heap read back different bytes than written"
                  else begin
                    match Rt.ocall rt S.Getpid [] with
                    | Kt.RInt _ -> Passed
                    | Kt.RErr e -> Degraded ("ocall refused: " ^ Kt.errno_to_string e)
                    | _ -> Corrupt "getpid ocall returned a non-pid value"
                  end)
        in
        match inner with
        | Passed -> (
            match Rt.destroy rt with
            | Ok () -> Passed
            | Error e -> Degraded ("enclave destroy: " ^ e))
        | o -> o
      end

(* --- slog: execute-ahead capture, chain verify, degraded recovery --- *)

let run_slog () =
  let sys = B.boot_veil ~npages:trial_npages ~log_frames:1 ~seed:23 () in
  let kernel = sys.B.kernel in
  Guest_kernel.Audit.set_rules (K.audit kernel) [ S.Open ];
  let proc = K.spawn kernel in
  for i = 0 to 59 do
    ignore
      (K.invoke kernel proc S.Open
         [ Kt.Str (Printf.sprintf "/tmp/l%d" i); Kt.Int 0x42; Kt.Int 0o644 ])
  done;
  let slog = sys.B.slog in
  let verify () =
    Veil_core.Slog.verify_chain ~lines:(Veil_core.Slog.read_all slog)
      ~digest:(Veil_core.Slog.chain_digest slog)
  in
  if not (verify ()) then Corrupt "audit hash chain does not verify"
  else if Veil_core.Slog.degraded slog then begin
    (* The region filled: retrieval + clear must recover the buffered
       records into a fresh, verifying chain. *)
    Veil_core.Slog.clear slog;
    if Veil_core.Slog.pending_count slog <> 0 then
      Corrupt "degraded-mode retry buffer did not drain on clear"
    else if not (verify ()) then Corrupt "recovered records break the hash chain"
    else Degraded "log region filled; records buffered and recovered"
  end
  else Passed

(* --- pulse: attested telemetry under an export-tampering hypervisor --- *)

let run_pulse ~plan () =
  let sys = B.boot_veil ~npages:trial_npages ~seed:29 () in
  let platform = sys.B.platform in
  let kernel = sys.B.kernel in
  let vcpu = sys.B.vcpu in
  let pu = platform.Sevsnp.Platform.pulse in
  Guest_kernel.Audit.set_rules (K.audit kernel) [ S.Open ];
  Obs.Pulse.arm pu ~interval:200_000 ~now:(Sevsnp.Vcpu.rdtsc vcpu);
  let proc = K.spawn kernel in
  for i = 0 to 99 do
    ignore
      (K.invoke kernel proc S.Open
         [ Kt.Str (Printf.sprintf "/tmp/p%d" i); Kt.Int 0x42; Kt.Int 0o644 ])
  done;
  Obs.Pulse.flush pu ~now:(Sevsnp.Vcpu.rdtsc vcpu);
  Obs.Pulse.disarm pu;
  ignore (B.anchor_pulse sys);
  if Obs.Pulse.captured pu < 2 then Corrupt "pulse: sampler captured fewer than 2 intervals"
  else begin
    (* The export leg is the tamper surface: the hypervisor ships the
       series to a remote verifier, and the armed plan may drop or
       edit an interval line in transit. *)
    let before = FP.hits plan FP.Pulse_export_tamper in
    let export = Sevsnp.Platform.export_pulse platform in
    let tampered = FP.hits plan FP.Pulse_export_tamper > before in
    match (Obs.Pulse.verify_export pu export, tampered) with
    | Ok n, false ->
        if n <> Obs.Pulse.retained pu then
          Corrupt (Printf.sprintf "pulse: clean export verified only %d of %d intervals" n
               (Obs.Pulse.retained pu))
        else Passed
    | Ok _, true -> Corrupt "pulse: tampered telemetry accepted by the verifier"
    | Error (i, reason), true ->
        Degraded (Printf.sprintf "pulse: telemetry tampering detected at interval %d (%s)" i reason)
    | Error (i, reason), false ->
        Corrupt (Printf.sprintf "pulse: clean export rejected at interval %d (%s)" i reason)
  end

let run_workload ?sites ?(vcpus = 1) ~seed kind =
  let plan = make_plan ?sites ~seed () in
  let body =
    match kind with
    | Wl_boot -> run_boot
    | Wl_syscall -> run_syscall ~seed ~vcpus
    | Wl_enclave -> run_enclave ~seed
    | Wl_slog -> run_slog
    | Wl_pulse -> run_pulse ~plan
  in
  let outcome = with_plan plan (fun () -> classify body) in
  {
    tr_workload = kind;
    tr_seed = seed;
    tr_outcome = outcome;
    tr_steps = FP.steps plan;
    tr_hits = List.map (fun s -> (FP.site_name s, FP.hits plan s)) FP.all_sites;
    tr_plan = plan;
  }

(* --- invariant (1): every attack stays blocked under any plan --- *)

let attacks_under_chaos ?sites ~seed () =
  let plan = make_plan ?sites ~seed () in
  with_plan plan (fun () ->
      let atks = A.all () in
      let breached =
        List.filter_map
          (fun a ->
            let o =
              (* A chaos-induced halt/#NPF during an attack is an
                 explicit stop, not a breach. *)
              try A.run a with
              | T.Cvm_halted r -> A.Blocked_error ("CVM halted: " ^ r)
              | T.Npf info -> A.Blocked_npf info
            in
            if A.is_blocked o then None else Some (A.name a, A.outcome_to_string o))
          atks
      in
      (breached, List.length atks))

type report = {
  rp_seed : int;
  rp_trials : trial list;
  rp_attacks_run : int;
  rp_breached : (string * string) list;
  rp_site_hits : (string * int) list;
  rp_replay_ok : bool;
  rp_ok : bool;
}

let run ?sites ?(trials = 3) ?(workloads = all_workloads) ?(check_replay = true) ?(vcpus = 1)
    ~seed () =
  let all_trials = ref [] and breached = ref [] and attacks_run = ref 0 in
  (* Each trial's plan seed derives from the top-level seed, the round
     and the workload slot, so a failing trial replays from the seed
     the driver prints. *)
  for k = 0 to trials - 1 do
    List.iteri
      (fun widx w ->
        let s = Rng.derive seed ~domain:(Trial { trial = k; slot = widx }) in
        all_trials := run_workload ?sites ~vcpus ~seed:s w :: !all_trials)
      workloads;
    let attack_seed = Rng.derive seed ~domain:(Trial { trial = k; slot = 99 }) in
    let b, n = attacks_under_chaos ?sites ~seed:attack_seed () in
    breached := b @ !breached;
    attacks_run := !attacks_run + n
  done;
  let trials_done = List.rev !all_trials in
  let replay_ok =
    (not check_replay)
    ||
    match trials_done with
    | [] -> true
    | t0 :: _ ->
        let again = run_workload ?sites ~vcpus ~seed:t0.tr_seed t0.tr_workload in
        FP.journal_equal t0.tr_plan again.tr_plan
  in
  let site_hits =
    List.map
      (fun s ->
        ( FP.site_name s,
          List.fold_left (fun acc t -> acc + FP.hits t.tr_plan s) 0 trials_done ))
      FP.all_sites
  in
  {
    rp_seed = seed;
    rp_trials = trials_done;
    rp_attacks_run = !attacks_run;
    rp_breached = !breached;
    rp_site_hits = site_hits;
    rp_replay_ok = replay_ok;
    rp_ok =
      List.for_all (fun t -> outcome_ok t.tr_outcome) trials_done
      && !breached = [] && replay_ok;
  }

let report_json r =
  let breached (n, o) : Obs.Json.t = Obj [ ("attack", String n); ("outcome", String o) ] in
  let trial t : Obs.Json.t =
    Obj
      [ ("workload", String (workload_name t.tr_workload)); ("seed", Int t.tr_seed);
        ("outcome", String (outcome_to_string t.tr_outcome)); ("steps", Int t.tr_steps);
        ("hits", Int (FP.total_hits t.tr_plan)) ]
  in
  Obs.Json.to_string
    (Obj
       [ ("seed", Int r.rp_seed); ("ok", Bool r.rp_ok); ("replay_ok", Bool r.rp_replay_ok);
         ("attacks_run", Int r.rp_attacks_run); ("breached", List (List.map breached r.rp_breached));
         ("site_hits", Obj (List.map (fun (n, h) -> (n, Obs.Json.Int h)) r.rp_site_hits));
         ("trials", List (List.map trial r.rp_trials)) ])
