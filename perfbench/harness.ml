(* Shared run machinery: configuration, the result record every
   workload fills, repeated set-up, the measured-phase loop, and the
   layer counters read off a booted system. *)

module B = Veil_core.Boot
module P = Sevsnp.Platform
module C = Sevsnp.Cycles
module V = Sevsnp.Vcpu
module M = Obs.Metrics

let process_start = Clock.now_ns ()

type config = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  small : bool;  (** reduced sizes, for the smoke test *)
  setup_only : bool;  (** set up once, print the set-up time and exit *)
  corrupt : string option;  (** oracle whose expected value is deliberately corrupted *)
  out_dir : string;
}

(* The oracle named by [--corrupt] compares against a wrong expected
   value, so the smoke test can show each oracle fires. *)
let corrupted cfg oracle = cfg.corrupt = Some oracle

(* A metric value with its sample count ([n < 0]: not a sampled
   statistic) and a short note on what the number is here. *)
type value = { v : float; n : int; note : string }

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable mismatches : string list;  (** oracle failures, newest first *)
  values : (string, value) Hashtbl.t;
  mutable notes : string list;  (** extra lines for the human-readable report *)
  mutable first_setup : float;  (** s, from process start *)
  mutable fresh : float list;  (** s, set-ups in fresh processes *)
}

let new_result () =
  { attempted = 0; failed = 0; mismatches = []; values = Hashtbl.create 64; notes = []; first_setup = 0.0; fresh = [] }

let set r ?(n = -1) ?(note = "") name v =
  ignore (Spec.unit_of name);
  Hashtbl.replace r.values name { v; n; note }

let note r line = r.notes <- line :: r.notes

(* Record an oracle failure against [ops] ops (at most 20 messages kept). *)
let mismatch r ~ops msg =
  r.failed <- r.failed + ops;
  if List.length r.mismatches < 20 then r.mismatches <- msg :: r.mismatches

let per x ops = if ops = 0 then 0.0 else float_of_int x /. float_of_int ops

(* --- set-up --- *)

(* One set-up, with spans armed in a traced run (boot, AP bring-up,
   enclave create).  A full major collection follows, untimed, so
   garbage of earlier set-ups is neither swept inside a later timed
   span nor left to move the peak heap.  Returns the host time the
   set-up ended and its result. *)
let setup_with cfg tr f =
  Span.set_on tr cfg.trace;
  let x = f () in
  let t1 = Clock.now_ns () in
  Span.set_on tr false;
  Gc.full_major ();
  (t1, x)

(* The process's first set-up, timed from process start to the first
   measured op, so it holds lazy initialisation (the crypto group
   search) too.  With [--setup-only] the process prints that time and
   exits. *)
let first_setup cfg tr r f =
  let t1, x = setup_with cfg tr f in
  let d = Clock.seconds_between process_start t1 in
  if cfg.setup_only then begin
    Printf.printf "%.17g\n" d;
    exit 0
  end;
  r.first_setup <- d;
  x

(* Lazy initialisation runs once per process, so set-up is also
   sampled in fresh processes: runs of this executable with
   [--setup-only] on the same workload and seed, each waited for.  An
   untraced run takes [fresh_wanted] of them, spread over its measured
   phase by [drive] so that the least disturbed is not confined to one
   stretch of host time. *)
let fresh_wanted cfg = if cfg.trace then 0 else if cfg.small then 1 else 10

let fresh_setup cfg r =
  let args =
    [| Sys.executable_name; "--workload"; cfg.workload; "--seed"; string_of_int cfg.seed; "--seconds"; "0";
       "--trace"; "0"; "--setup-only" |]
  in
  let args = if cfg.small then Array.append args [| "--small" |] else args in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let out = In_channel.input_all ic in
  match (Unix.close_process_in ic, float_of_string_opt (String.trim out)) with
  | Unix.WEXITED 0, Some d -> r.fresh <- d :: r.fresh
  | _ -> failwith "veilbench: a --setup-only run failed"

(* [setup_s] is the least-disturbed decile of the set-ups, as for the
   other host metrics: the 10th percentile of this process's first
   set-up and the fresh-process ones. *)
let report_setup cfg r tr =
  while List.length r.fresh < fresh_wanted cfg do
    fresh_setup cfg r
  done;
  let all = r.first_setup :: r.fresh in
  let k = List.length all in
  set r "setup_s" ~n:k
    ~note:(Printf.sprintf "10th percentile of %d fresh-process set-ups; median %.4f s" k (Samples.median_float all))
    (Samples.percentile_float all 10.0);
  let boots = tr.Span.total.(Span.k_boot) in
  set r "veil_core.boot_host_ms" ~n:(Samples.count boots)
    (float_of_int (Samples.percentile boots 50.0) /. 1e6)

(* --- the measured phase --- *)

type phase = {
  mutable batches : int;
  mutable ops : int;
  mutable ops_plain : int;  (** ops in untraced batches *)
  mutable ns_plain : int;
  mutable ops_traced : int;
  mutable ns_traced : int;
  mutable minor_words : float;  (** over untraced batches *)
  mutable minor_gcs : int;
  mutable major_gcs : int;
  (* per block of untraced batches: ops/s, per-op p50 and p99 (ns), ops *)
  mutable block_rates : float list;
  mutable block_p50 : float list;
  mutable block_p99 : float list;
  mutable block_ops : float list;
}

let ops_per_s ops ns = if ns = 0 then 0.0 else float_of_int ops /. (float_of_int ns /. 1e9)

(* Run whole blocks of [block_batches] batches until the first
   [sim_batches] batches are done and [seconds] have passed.

   The simulated-clock window is exactly the first [sim_batches]
   batches, so simulated metrics do not depend on host speed.  Host
   time on a shared machine is disturbed in bursts of seconds that
   only ever slow it down, so host metrics are read per block and
   reported from the least-disturbed decile of blocks: the 90th
   percentile of block ops/s, the 10th percentile of block p50 and p99
   of the per-op host times [batch] pushed into [host].  In a traced run
   every other batch is traced; blocks count untraced batches only,
   and traced against untraced throughput gives the tracing overhead.
   Outside the timed span, [prepare b] runs before batch [b] (a fresh
   round's set-up) and [check b] after it (the oracles); [sim_end ()]
   runs after batch [sim_batches - 1] and its check, and the peak heap
   is read there, at a fixed op count. *)
let drive ?(prepare = ignore) r cfg tr ~sim_batches ~block_batches ~host ~batch ~check ~sim_end =
  let ph =
    {
      batches = 0;
      ops = 0;
      ops_plain = 0;
      ns_plain = 0;
      ops_traced = 0;
      ns_traced = 0;
      minor_words = 0.0;
      minor_gcs = 0;
      major_gcs = 0;
      block_rates = [];
      block_p50 = [];
      block_p99 = [];
      block_ops = [];
    }
  in
  let block_ops = ref 0 and block_ns = ref 0 in
  let end_block () =
    if !block_ops > 0 then begin
      let sorted = Samples.sorted host in
      let q p = float_of_int (Samples.percentile_sorted sorted p) in
      ph.block_rates <- ops_per_s !block_ops !block_ns :: ph.block_rates;
      ph.block_p50 <- q 50.0 :: ph.block_p50;
      ph.block_p99 <- q 99.0 :: ph.block_p99;
      ph.block_ops <- float_of_int (Array.length sorted) :: ph.block_ops
    end;
    Samples.clear host;
    block_ops := 0;
    block_ns := 0
  in
  let gc0 = Gc.quick_stat () in
  let t_begin = Clock.now_ns () in
  let budget = int_of_float (cfg.seconds *. 1e9) in
  while
    ph.batches < sim_batches
    || Clock.now_ns () - t_begin < budget
    || ph.batches mod block_batches <> 0
  do
    let b = ph.batches in
    prepare b;
    let traced = cfg.trace && b mod 2 = 0 in
    Span.set_on tr traced;
    let mw0 = Gc.minor_words () in
    let t0 = Clock.now_ns () in
    let ops = batch b in
    let t1 = Clock.now_ns () in
    let mw1 = Gc.minor_words () in
    Span.set_on tr false;
    ph.ops <- ph.ops + ops;
    if traced then begin
      ph.ops_traced <- ph.ops_traced + ops;
      ph.ns_traced <- ph.ns_traced + (t1 - t0)
    end
    else begin
      ph.ops_plain <- ph.ops_plain + ops;
      ph.ns_plain <- ph.ns_plain + (t1 - t0);
      ph.minor_words <- ph.minor_words +. (mw1 -. mw0);
      block_ops := !block_ops + ops;
      block_ns := !block_ns + (t1 - t0)
    end;
    check b;
    if b = sim_batches - 1 then begin
      sim_end ();
      let st = Gc.quick_stat () in
      set r "host_peak_heap_mb" ~note:"top of heap at the end of the simulated window"
        (float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0)
    end;
    ph.batches <- b + 1;
    if ph.batches mod block_batches = 0 then begin
      end_block ();
      let k = List.length r.fresh and want = fresh_wanted cfg in
      if k < want && Clock.now_ns () - t_begin >= k * budget / want then fresh_setup cfg r
    end
  done;
  let gc1 = Gc.quick_stat () in
  ph.minor_gcs <- gc1.Gc.minor_collections - gc0.Gc.minor_collections;
  ph.major_gcs <- gc1.Gc.major_collections - gc0.Gc.major_collections;
  ph

(* Host metrics of the measured phase, from its least-disturbed
   decile of blocks.  [per_op] says what one host sample is when it
   is not one op. *)
let report_host ?(per_op = "") r cfg ph =
  r.attempted <- r.attempted + ph.ops;
  let k = List.length ph.block_rates in
  let n = int_of_float (Samples.median_float ph.block_ops) in
  let decile = Printf.sprintf "best decile of %d blocks of ~%d" k n in
  set r "host_ops_per_s" ~n:ph.ops_plain ~note:decile (Samples.percentile_float ph.block_rates 90.0);
  let note = if per_op = "" then decile else per_op ^ "; " ^ decile in
  set r "host_op_p50_us" ~n ~note (Samples.percentile_float ph.block_p50 10.0 /. 1e3);
  set r "host_op_p99_us" ~n ~note (Samples.percentile_float ph.block_p99 10.0 /. 1e3);
  set r "alloc_words_per_op" ~n:ph.ops_plain ~note:"every untraced batch"
    (if ph.ops_plain = 0 then 0.0 else ph.minor_words /. float_of_int ph.ops_plain);
  set r "host.minor_gcs_per_kop" (per (1000 * ph.minor_gcs) ph.ops);
  set r "host.major_gcs" (float_of_int ph.major_gcs);
  if cfg.trace then begin
    let plain = ops_per_s ph.ops_plain ph.ns_plain
    and traced = ops_per_s ph.ops_traced ph.ns_traced in
    set r "bench.trace_overhead_pct" ~n:ph.ops_traced
      (if traced = 0.0 then 0.0 else 100.0 *. ((plain /. traced) -. 1.0))
  end

(* Exact simulated per-op percentiles and mean over the window. *)
let report_sim_ops r sim =
  let sorted = Samples.sorted sim in
  let n = Array.length sorted in
  set r "sim_op_p50_cycles" ~n (float_of_int (Samples.percentile_sorted sorted 50.0));
  set r "sim_op_p99_cycles" ~n (float_of_int (Samples.percentile_sorted sorted 99.0));
  set r "sim_sojourn_mean_cycles" ~n ~note:"closed loop: sojourn = op latency" (Samples.mean sim)

(* Per-kind op shares and simulated-cost modes over the window, and
   the kinds of the ops around the overall p50 and p99: the check that
   each percentile sits inside one kind's mode, not on a boundary. *)
let report_kinds r ~names ~per_kind ~sim =
  let total = Samples.count sim in
  Array.iteri
    (fun i s ->
      let sorted = Samples.sorted s in
      let n = Array.length sorted in
      let q p = Samples.percentile_sorted sorted p in
      note r
        (Printf.sprintf "  %-11s %5.1f%% of %d ops; sim cycles min %d p50 %d p99 %d max %d" names.(i)
           (100.0 *. per n total) total (q 0.0) (q 50.0) (q 99.0) (q 100.0)))
    per_kind;
  (* composition by kind of the samples within 0.5% of [v] *)
  let around v =
    let tol = max 1 (v / 200) in
    let counts =
      Array.map
        (fun s ->
          let c = ref 0 in
          for i = 0 to Samples.count s - 1 do
            if abs (s.Samples.a.(i) - v) <= tol then incr c
          done;
          !c)
        per_kind
    in
    let all = Array.fold_left ( + ) 0 counts in
    Array.to_list (Array.mapi (fun i c -> (names.(i), c)) counts)
    |> List.filter (fun (_, c) -> c > 0)
    |> List.map (fun (name, c) -> Printf.sprintf "%s %.0f%%" name (100.0 *. per c all))
    |> String.concat ", "
  in
  let p50 = Samples.percentile sim 50.0 and p99 = Samples.percentile sim 99.0 in
  note r (Printf.sprintf "  ops within 0.5%% of sim p50 %d: %s" p50 (around p50));
  note r (Printf.sprintf "  ops within 0.5%% of sim p99 %d: %s" p99 (around p99))

(* --- layer counters off a booted system --- *)

let counter reg name =
  match M.find reg name with Some (M.Counter c) -> M.value c | _ -> 0

(* Every always-on counter the per-layer metrics read, by name. *)
let snapshot (sys : B.veil_system) =
  let p = sys.B.platform in
  let reg = p.P.metrics in
  let vcpus = P.vcpus p in
  let bucket b = List.fold_left (fun acc v -> acc + C.read_bucket v.V.counter b) 0 vcpus in
  let hv = Hypervisor.Hv.stats sys.B.hv in
  let ms = Veil_core.Monitor.stats sys.B.mon in
  let ws = Veil_core.Monitor.wait_stats sys.B.mon in
  let es = Veil_core.Encsvc.stats sys.B.enc in
  [
    ("vmgexit", counter reg "platform.vmgexit");
    ("rmp_ops", counter reg "platform.rmpadjust" + counter reg "platform.pvalidate");
    ("npf", counter reg "platform.npf");
    ("tlb_hit", counter reg "tlb.hit");
    ("tlb_miss", counter reg "tlb.miss");
    ("switch", bucket C.Switch);
    ("copy", bucket C.Copy);
    ("kernel", bucket C.Kernel);
    ("monitor", bucket C.Monitor);
    ("crypto", bucket C.Crypto);
    ("compute", bucket C.Compute);
    ("busy", List.fold_left (fun acc v -> acc + C.total v.V.counter) 0 vcpus);
    ("domain_switches", hv.Hypervisor.Hv.domain_switches);
    ("interrupts", hv.Hypervisor.Hv.interrupts_injected);
    ( "relay_faults",
      counter reg "hv.relay.dropped" + counter reg "hv.relay.refused"
      + counter reg "hv.relay.coalesced" );
    ("syscalls", Guest_kernel.Kernel.syscalls_invoked sys.B.kernel);
    ("os_calls", ms.Veil_core.Monitor.os_calls);
    ( "retries",
      counter reg "monitor.insn_retries" + counter reg "monitor.switch_retries"
      + counter reg "monitor.replays_suppressed" + counter reg "monitor.ghcb_sanitized"
      + ms.Veil_core.Monitor.sanitizer_rejections );
    ("slog_appends", (Veil_core.Slog.stats sys.B.slog).Veil_core.Slog.appended);
    ("enc_switches", es.Veil_core.Encsvc.entries + es.Veil_core.Encsvc.exits);
    ("ws_busy", ws.Veil_core.Monitor.ws_busy_cycles);
    ("ws_queued", ws.Veil_core.Monitor.ws_queued_cycles);
  ]

let delta before after name = List.assoc name after - List.assoc name before

(* The per-layer metrics every single-system workload reads the same
   way, over the simulated window of [ops] ops. *)
let report_layers r ~before ~after ~ops =
  let d = delta before after in
  let po name = per (d name) ops in
  set r "sevsnp.vmgexits_per_op" (po "vmgexit");
  set r "sevsnp.switch_cycles_per_op" (po "switch");
  set r "sevsnp.copy_cycles_per_op" (po "copy");
  set r "sevsnp.rmp_ops_per_op" (po "rmp_ops");
  set r "sevsnp.tlb_hit_ratio" (per (d "tlb_hit") (d "tlb_hit" + d "tlb_miss"));
  set r "sevsnp.npf" (float_of_int (d "npf"));
  set r "hypervisor.domain_switches_per_op" (po "domain_switches");
  set r "hypervisor.interrupts_per_op" (po "interrupts");
  set r "hypervisor.relay_faults" (float_of_int (d "relay_faults"));
  set r "guest_kernel.syscalls_per_op" (po "syscalls");
  set r "guest_kernel.kernel_cycles_per_op" (po "kernel");
  set r "veil_core.os_calls_per_op" (po "os_calls");
  set r "veil_core.monitor_cycles_per_op" (po "monitor");
  set r "veil_core.monitor_busy_share" (per (d "ws_busy") (d "busy"));
  set r "veil_core.monitor_queued_cycles_per_op" (po "ws_queued");
  set r "veil_core.slog_appends_per_op" (po "slog_appends");
  set r "veil_core.enclave_switches_per_op" (po "enc_switches");
  set r "veil_core.retries" (float_of_int (d "retries"));
  set r "veil_crypto.crypto_cycles_per_op" (po "crypto");
  set r "workloads.compute_cycles_per_op" (po "compute")

(* Traced host-time statistics of one span kind: self time p50 (or the
   whole duration when [total]). *)
let report_span r tr ?(total = false) name kind =
  let s = if total then tr.Span.total.(kind) else tr.Span.self.(kind) in
  set r name ~n:(Samples.count s) (float_of_int (Samples.percentile s 50.0))

(* Run [f] with every kernel hook wrapped in a span, then put the
   kernel's own hooks back: only traced batches pay for the wrappers.
   Installed with [Kernel.set_hooks] after any ring set-up, so the
   wrappers sit on the path the kernel actually calls. *)
let with_traced_hooks tr kernel f =
  let module H = Guest_kernel.Hooks in
  let module Kern = Guest_kernel.Kernel in
  let h = Kern.hooks kernel in
  let w f = Span.wrap tr Span.k_hook_other f in
  Kern.set_hooks kernel
    {
      H.h_pvalidate = (fun ~gpfn ~to_private -> w (fun () -> h.H.h_pvalidate ~gpfn ~to_private));
      h_vcpu_boot = (fun ~vcpu_id -> w (fun () -> h.H.h_vcpu_boot ~vcpu_id));
      h_module_load = (fun img -> w (fun () -> h.H.h_module_load img));
      h_module_unload = (fun m -> w (fun () -> h.H.h_module_unload m));
      h_audit = (fun rcd -> Span.wrap tr Span.k_hook_audit (fun () -> h.H.h_audit rcd));
      h_enclave_finalize = (fun d -> w (fun () -> h.H.h_enclave_finalize d));
      h_enclave_destroy = (fun d -> w (fun () -> h.H.h_enclave_destroy d));
      h_pt_sync =
        (fun ~pid ~va ~npages ~prot ->
          Span.wrap tr Span.k_hook_pt_sync (fun () -> h.H.h_pt_sync ~pid ~va ~npages ~prot));
    };
  Fun.protect ~finally:(fun () -> Kern.set_hooks kernel h) f
