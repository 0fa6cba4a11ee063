(* audit-smp: one Veil guest, 4 simulated VCPUs brought up through the
   monitor, VeilS-LOG capturing an audit ruleset.  Each VCPU runs a
   closed loop of a seeded syscall mix; every audited call drags a log
   append through VeilMon over a hypervisor-relayed domain switch. *)

module K = Guest_kernel.Ktypes
module S = Guest_kernel.Sysno
module Kern = Guest_kernel.Kernel
module Sch = Guest_kernel.Sched
module Smp = Veil_core.Smp
module Slog = Veil_core.Slog
module B = Veil_core.Boot
module V = Sevsnp.Vcpu
module Rng = Veil_crypto.Rng
module H = Harness

let nvcpus = 4

(* Op mix in percent.  Sorted by simulated cost the kinds run
   getpid < stat < append < read, so the read share (60%) holds both
   the median (its ~17th percentile) and p99 (its ~98th): each sits
   inside one kind's mode, and file sizes spread the read mode. *)
let pct_getpid = 10
let pct_stat = 15
let pct_append = 15
let kind_names = [| "getpid"; "stat"; "append"; "read" |]
let audited_rules = [ S.Open; S.Read; S.Write; S.Close ]

(* audit records each kind appends to VeilS-LOG *)
let records_of_kind = [| 0; 0; 1; 3 |]
let append_sizes = [| 64; 128; 192; 256; 320; 384; 448; 512 |]

(* [Kernel.invoke] inside an op, timed as a span when tracing is armed
   (no closure on the untraced path). *)
let invoke tr kernel proc s args =
  if tr.Span.on then begin
    Span.enter tr Span.k_invoke;
    let r = Kern.invoke kernel proc s args in
    Span.leave tr;
    r
  end
  else Kern.invoke kernel proc s args

type worker = {
  w_proc : Guest_kernel.Process.t;
  w_rng : Rng.t;
  w_afd : int;
  (* results of the op in flight, checked after its timed span *)
  mutable r1 : K.ret;
  mutable r2 : K.ret;
  mutable r3 : K.ret;
}

type state = {
  sys : B.veil_system;
  smp : Smp.t;
  files : (string * bytes) array;
  payloads : bytes array;
  workers : worker array;
}

let setup cfg tr master =
  let boot_seed = Rng.int master 1_000_000_000 in
  let inter_seed = Rng.int master 1_000_000_000 in
  let sys = Span.wrap tr Span.k_boot (fun () -> B.boot_veil ~npages:4096 ~seed:boot_seed ()) in
  let smp =
    Span.wrap tr Span.k_bring_up (fun () ->
        Smp.bring_up ~policy:(Hypervisor.Hv.Interleave.Seeded inter_seed) sys ~nvcpus ())
  in
  let kernel = sys.B.kernel in
  let proc = Kern.spawn kernel in
  let loader =
    {
      Workloads.Env.sys = (fun s a -> Kern.invoke kernel proc s a);
      compute = (fun n -> V.charge (Kern.vcpu kernel) Sevsnp.Cycles.Compute n);
      env_rng = Rng.split master;
      env_rings = false;
    }
  in
  let module E = Workloads.Env in
  E.mkdir loader "/bench";
  (* file sizes: a stratified uniform sample of 1-16 KiB, one size per
     stratum, so every seed reads the same size distribution *)
  let nfiles = if cfg.H.small then 16 else 256 in
  let span = 15 * 1024 in
  let files =
    Array.init nfiles (fun i ->
        let path = Printf.sprintf "/bench/f%03d" i in
        let size = 1024 + (((i * span) + Rng.int master span) / nfiles) in
        let content = Rng.bytes master size in
        let fd = E.open_ loader path ~flags:(E.o_creat lor E.o_wronly lor E.o_trunc) ~mode:0o644 in
        ignore (E.write loader fd content);
        E.close loader fd;
        (path, content))
  in
  let workers =
    Array.init nvcpus (fun w ->
        let p = Kern.spawn kernel in
        let path = Printf.sprintf "/bench/log-%d" w in
        let afd =
          match
            Kern.invoke kernel p S.Open
              [ K.Str path; K.Int (E.o_creat lor E.o_wronly lor E.o_append); K.Int 0o644 ]
          with
          | K.RInt fd -> fd
          | r -> failwith (Format.asprintf "audit-smp: open %s: %a" path K.pp_ret r)
        in
        { w_proc = p; w_rng = Rng.split master; w_afd = afd; r1 = K.RInt 0; r2 = K.RInt 0; r3 = K.RInt 0 })
  in
  let payloads = Array.map (fun n -> Rng.bytes master n) append_sizes in
  Guest_kernel.Audit.set_rules (Kern.audit kernel) audited_rules;
  Kern.set_audit_protection kernel true;
  (* start the measured log epoch empty *)
  Slog.clear sys.B.slog;
  Veil_core.Monitor.reset_wait_ledger sys.B.mon;
  { sys; smp; files; payloads; workers }

(* Rounds: every [round_batches] batches the guest is set up afresh,
   so the in-memory kaudit buffer and the heap stay bounded and the
   host metrics do not drift with run length.  Round 0 is the
   simulated window. *)
let run cfg tr r =
  let master = Rng.create cfg.H.seed in
  let st = ref (H.first_setup cfg tr r (fun () -> setup cfg tr master)) in
  let per_worker = if cfg.H.small then 25 else 250 in
  let round_batches = if cfg.H.small then 2 else 24 in
  let host = Samples.create () and sim = Samples.create () in
  let per_kind = Array.init 4 (fun _ -> Samples.create ()) in
  let expected = ref 0 (* audit records expected this batch *) in
  let errors = ref 0 in
  let in_sim = ref true in
  let op_id = ref 0 in
  let op st w =
    let kernel = st.sys.B.kernel in
    let v = Kern.vcpu kernel in
    let roll = Rng.int w.w_rng 100 in
    let kind =
      if roll < pct_getpid then 0
      else if roll < pct_getpid + pct_stat then 1
      else if roll < pct_getpid + pct_stat + pct_append then 2
      else 3
    in
    let fi = Rng.int w.w_rng (Array.length st.files) in
    let ai = Rng.int w.w_rng (Array.length st.payloads) in
    let path, content = st.files.(fi) in
    let inv s a = invoke tr kernel w.w_proc s a in
    Span.set_op tr !op_id;
    incr op_id;
    let c0 = V.rdtsc v in
    let t0 = Clock.now_ns () in
    Span.enter tr Span.k_op;
    (match kind with
    | 0 -> w.r1 <- inv S.Getpid []
    | 1 -> w.r1 <- inv S.Stat [ K.Str path ]
    | 2 -> w.r1 <- inv S.Write [ K.Int w.w_afd; K.Buf st.payloads.(ai) ]
    | _ -> (
        w.r1 <- inv S.Open [ K.Str path; K.Int 0; K.Int 0 ];
        match w.r1 with
        | K.RInt fd ->
            w.r2 <- inv S.Read [ K.Int fd; K.Int (Bytes.length content) ];
            w.r3 <- inv S.Close [ K.Int fd ]
        | _ -> ()));
    Span.leave tr;
    let t1 = Clock.now_ns () in
    let c1 = V.rdtsc v in
    if not tr.Span.on then Samples.push host (t1 - t0);
    if !in_sim then begin
      Samples.push sim (c1 - c0);
      Samples.push per_kind.(kind) (c1 - c0)
    end;
    expected := !expected + records_of_kind.(kind);
    let ok =
      match kind with
      | 0 ->
          let pid = w.w_proc.Guest_kernel.Process.pid in
          w.r1 = K.RInt (if H.corrupted cfg "getpid" then pid + 1 else pid)
      | 1 -> ( match w.r1 with K.RStat s -> s.K.st_size = Bytes.length content | _ -> false)
      | 2 -> w.r1 = K.RInt (Bytes.length st.payloads.(ai))
      | _ -> (
          match (w.r1, w.r2, w.r3) with
          | K.RInt _, K.RBuf b, K.RInt 0 ->
              let want =
                if H.corrupted cfg "read-content" then Bytes.map Char.uppercase_ascii content
                else content
              in
              Bytes.equal b want
          | _ -> false)
    in
    if not ok then begin
      incr errors;
      H.mismatch r ~ops:1
        (Printf.sprintf "audit-smp: %s op on %s returned a wrong result" kind_names.(kind) path)
    end;
    Sch.yield ()
  in
  let prepare b =
    if b > 0 && b mod round_batches = 0 then begin
      st := snd (H.setup_with cfg tr (fun () -> setup cfg tr master))
    end
  in
  let batch _ =
    let st = !st in
    expected := 0;
    Array.iteri
      (fun w wk ->
        Smp.spawn ~vcpu:w st.smp ~name:(Printf.sprintf "w%d" w) (fun () ->
            for _ = 1 to per_worker do
              op st wk
            done))
      st.workers;
    if tr.Span.on then H.with_traced_hooks tr st.sys.B.kernel (fun () -> Smp.run st.smp)
    else Smp.run st.smp;
    nvcpus * per_worker
  in
  (* the remote user's retrieve-verify-clear, once per batch *)
  let check b =
    let slog = !st.sys.B.slog in
    let lines = Slog.read_all slog in
    let digest = Bytes.copy (Slog.chain_digest slog) in
    if H.corrupted cfg "slog-chain" then Bytes.set digest 0 (Char.chr (Char.code (Bytes.get digest 0) lxor 1));
    let ops = nvcpus * per_worker in
    if not (Slog.verify_chain ~lines ~digest) then
      H.mismatch r ~ops (Printf.sprintf "audit-smp: batch %d: VeilS-LOG hash chain does not verify" b);
    let want = if H.corrupted cfg "slog-count" then !expected + 1 else !expected in
    if List.length lines <> want then
      H.mismatch r ~ops
        (Printf.sprintf "audit-smp: batch %d: %d log records for %d audited calls" b (List.length lines) want);
    if Slog.degraded slog then H.mismatch r ~ops (Printf.sprintf "audit-smp: batch %d: VeilS-LOG degraded" b);
    Slog.clear slog
  in
  (* the simulated window is round 0: read its counters off the first
     guest before the next round's set-up replaces it *)
  let counter i = (Smp.vcpu !st.smp i).V.counter in
  let before = H.snapshot !st.sys in
  let vc0 = Array.init nvcpus (fun i -> Sevsnp.Cycles.total (counter i)) in
  let after = ref before and wall = ref 0 and steals = ref 0 in
  let sim_end () =
    in_sim := false;
    after := H.snapshot !st.sys;
    wall := Array.fold_left max 0 (Array.init nvcpus (fun i -> Sevsnp.Cycles.total (counter i) - vc0.(i)));
    steals := Smp.steals !st.smp
  in
  let block_batches = if cfg.H.small then 1 else 8 in
  let ph =
    H.drive ~prepare r cfg tr ~sim_batches:round_batches ~block_batches ~host ~batch ~check ~sim_end
  in
  H.report_host r cfg ph;
  let sim_ops = Samples.count sim in
  H.set r "sim_ops_per_s" ~n:sim_ops ~note:"ops / max per-VCPU cycle delta"
    (float_of_int sim_ops /. Sevsnp.Cycles.seconds_of_cycles !wall);
  H.report_sim_ops r sim;
  H.report_layers r ~before ~after:!after ~ops:sim_ops;
  H.set r "guest_kernel.sched_steals" (float_of_int !steals);
  H.set r "guest_kernel.errors" (float_of_int !errors);
  H.report_span r tr "guest_kernel.invoke_self_ns_p50" Span.k_invoke;
  H.report_span r tr "veil_core.audit_hook_ns_p50" Span.k_hook_audit;
  H.report_span r tr "veil_core.pt_sync_hook_ns_p50" Span.k_hook_pt_sync;
  H.report_kinds r ~names:kind_names ~per_kind ~sim
