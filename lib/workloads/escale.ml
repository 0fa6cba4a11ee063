(* E-scale measurement harness (see the .mli).  Extracted from bench
   so veilctl's scope/report commands regenerate exactly the numbers
   the bench tables print. *)

module C = Sevsnp.Cycles
module K = Guest_kernel.Ktypes
module S = Guest_kernel.Sysno
module Kern = Guest_kernel.Kernel
module Smp = Veil_core.Smp
module Sch = Guest_kernel.Sched
module V = Sevsnp.Vcpu
module P = Sevsnp.Platform

type result = {
  es_ops : int;
  es_wall : int;
  es_busy : int;
  es_mon : int;
  es_prof_mon_self : int;
  es_prof_mon_hits : int;
  es_steals : int;
  es_journal : string;
  es_wait : Veil_core.Monitor.wait_stats;
}

let inter_seed = 1911

let vcpu_counts () =
  (* the monitor's IDCB region provisions at most 8 VCPUs *)
  let wanted =
    match Sys.getenv_opt "VEIL_ESCALE_VCPUS" with
    | Some s -> List.filter_map int_of_string_opt (String.split_on_char ',' s)
    | None -> [ 1; 2; 4; 8 ]
  in
  match List.filter (fun n -> n >= 1 && n <= 8) wanted with
  | [] -> [ 1 ]
  | l -> List.sort_uniq compare l

let throughput r = float_of_int r.es_ops /. C.seconds_of_cycles r.es_wall

let serialized_pct r =
  if r.es_busy = 0 then 0.0
  else 100.0 *. float_of_int r.es_wait.Veil_core.Monitor.ws_busy_cycles /. float_of_int r.es_busy

let amdahl_ceiling ~serial_frac ~nvcpus =
  if serial_frac > 0.0 then 1.0 /. (serial_frac +. ((1.0 -. serial_frac) /. float_of_int nvcpus))
  else float_of_int nvcpus

(* Default SLO for pulse-armed runs: 95% of syscalls at or under
   2^14 - 1 cycles per trailing 8-interval window.  Plain getpid and
   unaudited I/O land well under this; the audited Sendto reply path
   (log append through VeilMon) lands above it, so the http workload
   burns real error budget and the report is non-trivial. *)
let slo_good_below = (1 lsl 14) - 1
let slo_target = 0.95
let slo_window = 8

let measure ?(trace = false) ?(rings = false) ?pulse ~nvcpus ~seed ~spawn_work () =
  let sys = Veil_core.Boot.boot_veil ~npages:4096 ~seed () in
  let prof = sys.Veil_core.Boot.platform.P.profiler in
  Obs.Profiler.set_enabled prof true;
  let smp =
    Smp.bring_up ~policy:(Hypervisor.Hv.Interleave.Seeded inter_seed) sys ~nvcpus ()
  in
  (* Veil-Ring opt-in: enabled after AP bring-up so every VCPU gets a
     ring, before the window so the batching is what gets measured. *)
  if rings then Veil_core.Boot.enable_rings sys ();
  (* Measurement window starts here: boot and AP bring-up traffic must
     not pollute the serialized-monitor ledger. *)
  Veil_core.Monitor.reset_wait_ledger sys.Veil_core.Boot.mon;
  (* Veil-Pulse opt-in: armed at window start so interval 0 opens on
     the first measured exit; the pulse-off path touches nothing. *)
  (match pulse with
  | Some interval ->
      let pu = sys.Veil_core.Boot.platform.P.pulse in
      Obs.Pulse.objective pu ~name:"syscall-latency" ~metric:"kernel.syscall_cycles"
        ~good_below:slo_good_below ~slo:slo_target ~window:slo_window;
      Obs.Pulse.arm pu ~interval ~now:(V.rdtsc (Smp.vcpu smp 0))
  | None -> ());
  if trace then begin
    Obs.Trace.clear sys.Veil_core.Boot.platform.P.tracer;
    Obs.Trace.set_enabled sys.Veil_core.Boot.platform.P.tracer true
  end;
  let counter i = (Smp.vcpu smp i).V.counter in
  let before = Array.init nvcpus (fun i -> C.total (counter i)) in
  let mon_before =
    Array.init nvcpus (fun i ->
        C.read_bucket (counter i) C.Monitor + C.read_bucket (counter i) C.Switch)
  in
  let ops = spawn_work sys smp in
  Smp.run smp;
  (* Window barrier: leftover ring slots are part of the measured
     work — drain them before reading the counters. *)
  if rings then Veil_core.Boot.flush_rings sys;
  let deltas = Array.init nvcpus (fun i -> C.total (counter i) - before.(i)) in
  let mon =
    Array.init nvcpus (fun i ->
        C.read_bucket (counter i) C.Monitor + C.read_bucket (counter i) C.Switch
        - mon_before.(i))
    |> Array.fold_left ( + ) 0
  in
  let wait = Veil_core.Monitor.wait_stats sys.Veil_core.Boot.mon in
  let prof_mon_self =
    Obs.Profiler.bucket_self prof "os_call" + Obs.Profiler.bucket_self prof "os_call_batch"
  in
  let prof_mon_hits =
    Obs.Profiler.bucket_hits prof "os_call" + Obs.Profiler.bucket_hits prof "os_call_batch"
  in
  (* Pulse epilogue, after every window counter and ledger is read:
     close the tail interval, stop sampling, then append every anchor
     to VeilS-LOG.  In-window sampling cost (Cycles.pulse_sample per
     capture) is part of the measurement; anchoring models the
     retrieval-time export and stays outside it. *)
  (match pulse with
  | Some _ ->
      let pu = sys.Veil_core.Boot.platform.P.pulse in
      let now =
        Array.init nvcpus (fun i -> V.rdtsc (Smp.vcpu smp i)) |> Array.fold_left max 0
      in
      Obs.Pulse.flush pu ~now;
      Obs.Pulse.disarm pu;
      ignore (Veil_core.Boot.anchor_pulse sys)
  | None -> ());
  ( {
      es_ops = ops;
      es_wall = Array.fold_left max 0 deltas;
      es_busy = Array.fold_left ( + ) 0 deltas;
      es_mon = mon;
      es_prof_mon_self = prof_mon_self;
      es_prof_mon_hits = prof_mon_hits;
      es_steals = Smp.steals smp;
      es_journal = Smp.journal smp;
      es_wait = wait;
    },
    sys )

(* Veil-Pulse per-interval timeseries of one measured run, as a JSON
   object — shared by the bench JSON document and [veilctl pulse
   --json] so the two never drift. *)
let pulse_json sys : Obs.Json.t =
  let pu = sys.Veil_core.Boot.platform.P.pulse in
  let interval i : Obs.Json.t =
    let t0, t1 = match Obs.Pulse.bounds pu i with Some b -> b | None -> (0, 0) in
    let n, p50, p99, p999 =
      match Obs.Pulse.hist_window pu ~metric:"kernel.syscall_cycles" ~window:1 ~upto:i with
      | Some (b, n, _) ->
          ( n,
            Obs.Metrics.bucket_percentile ~buckets:b 50.0,
            Obs.Metrics.bucket_percentile ~buckets:b 99.0,
            Obs.Metrics.bucket_percentile ~buckets:b 99.9 )
      | None -> (0, 0, 0, 0)
    in
    let exits =
      match Obs.Pulse.counter_delta pu ~metric:"platform.vmgexit" i with Some v -> v | None -> 0
    in
    Obj
      [ ("i", Int i); ("t0", Int t0); ("t1", Int t1); ("syscalls", Int n); ("p50", Int p50);
        ("p99", Int p99); ("p999", Int p999); ("vmgexits", Int exits) ]
  in
  let burn (br : Obs.Pulse.burn_report) : Obs.Json.t =
    Obj
      [ ("name", String br.br_name); ("metric", String br.br_metric);
        ("good_below", Int br.br_good_below); ("slo", Float br.br_slo); ("window", Int br.br_window);
        ("total", Int br.br_total); ("bad", Int br.br_bad); ("budget", Float br.br_budget);
        ("burn", Float br.br_burn); ("crossed", Bool br.br_crossed); ("crossings", Int br.br_crossings) ]
  in
  let first = Obs.Pulse.first_retained pu in
  Obj
    [ ("interval", Int (Obs.Pulse.interval_cycles pu)); ("captured", Int (Obs.Pulse.captured pu));
      ("overwritten", Int (Obs.Pulse.overwritten pu));
      ("intervals", List (List.init (Obs.Pulse.captured pu - first) (fun k -> interval (first + k))));
      ("slo", List (List.map burn (Obs.Pulse.burn_reports pu))) ]

let syscall_work ~ops_total sys smp =
  let kernel = sys.Veil_core.Boot.kernel in
  Guest_kernel.Audit.set_rules (Kern.audit kernel) [ S.Open ];
  let nv = Smp.nvcpus smp in
  let per = ops_total / nv in
  for w = 0 to nv - 1 do
    Smp.spawn ~vcpu:w smp ~name:(Printf.sprintf "sysbench-%d" w) (fun () ->
        let proc = Kern.spawn kernel in
        for i = 1 to per do
          (match Kern.invoke kernel proc S.Getpid [] with
          | K.RInt _ -> ()
          | r -> failwith (Format.asprintf "escale getpid: %a" K.pp_ret r));
          (if i mod 32 = 0 then
             match
               Kern.invoke kernel proc S.Open
                 [ K.Str (Printf.sprintf "/tmp/es-%d" w); K.Int 0x42; K.Int 0o644 ]
             with
             | K.RInt fd -> ignore (Kern.invoke kernel proc S.Close [ K.Int fd ])
             | r -> failwith (Format.asprintf "escale open: %a" K.pp_ret r));
          Sch.yield ()
        done)
  done;
  per * nv

let http_work ~requests sys smp =
  let kernel = sys.Veil_core.Boot.kernel in
  Guest_kernel.Audit.set_rules (Kern.audit kernel) [ S.Sendto ];
  let nv = Smp.nvcpus smp in
  (* One connection per VCPU once past 4, else the fixed 4 streams cap
     parallelism and 8 VCPUs can never beat 4 (strong scaling needs at
     least one stream per VCPU); counts <= 4 keep the historical 4
     streams so their schedules stay byte-identical. *)
  let nclients = max 4 nv in
  let per_client = requests / nclients in
  let port = 9300 in
  let body = Bytes.make 1024 'H' in
  Smp.spawn ~vcpu:0 smp ~name:"httpd" (fun () ->
      let proc = Kern.spawn kernel in
      let sys_ s a = Kern.invoke_blocking kernel proc s a in
      let srv =
        match sys_ S.Socket [ K.Int 2; K.Int 1; K.Int 0 ] with
        | K.RInt f -> f
        | _ -> failwith "escale http: socket"
      in
      ignore (sys_ S.Bind [ K.Int srv; K.Int port ]);
      ignore (sys_ S.Listen [ K.Int srv; K.Int 16 ]);
      for c = 0 to nclients - 1 do
        let conn =
          match sys_ S.Accept [ K.Int srv ] with
          | K.RInt f -> f
          | _ -> failwith "escale http: accept"
        in
        (* handler rides the connection's VCPU, not the listener's;
           the fd belongs to the listener's process, so the handler
           keeps issuing syscalls as that process *)
        Smp.spawn ~vcpu:(c mod nv) smp ~name:(Printf.sprintf "handler-%d" c) (fun () ->
            for _ = 1 to per_client do
              match sys_ S.Recvfrom [ K.Int conn; K.Int 256 ] with
              | K.RBuf b when Bytes.length b > 0 ->
                  (* request parsing + file lookup + response build *)
                  V.charge (Kern.vcpu kernel) C.Compute 30_000;
                  ignore (sys_ S.Sendto [ K.Int conn; K.Buf body ])
              | _ -> failwith "escale http: server recv"
            done)
      done);
  let served = ref 0 in
  for c = 0 to nclients - 1 do
    Smp.spawn ~vcpu:(c mod nv) smp ~name:(Printf.sprintf "client-%d" c) (fun () ->
        let proc = Kern.spawn kernel in
        let sys_ s a = Kern.invoke_blocking kernel proc s a in
        let fd =
          match sys_ S.Socket [ K.Int 2; K.Int 1; K.Int 0 ] with
          | K.RInt f -> f
          | _ -> failwith "escale http: client socket"
        in
        (* under SMP interleaving a client can run before the listener
           is up: retry the refused connect on the next slice *)
        let rec connect () =
          match sys_ S.Connect [ K.Int fd; K.Int port ] with
          | K.RInt _ -> ()
          | K.RErr K.ECONNREFUSED ->
              Sch.yield ();
              connect ()
          | r -> failwith (Format.asprintf "escale http: connect: %a" K.pp_ret r)
        in
        connect ();
        for r = 1 to per_client do
          (* client-side request build + TLS-ish work *)
          V.charge (Kern.vcpu kernel) C.Compute 90_000;
          ignore (sys_ S.Sendto [ K.Int fd; K.Buf (Bytes.of_string (Printf.sprintf "GET /%d" r)) ]);
          match sys_ S.Recvfrom [ K.Int fd; K.Int 2048 ] with
          | K.RBuf b when Bytes.length b = Bytes.length body -> incr served
          | _ -> failwith "escale http: bad reply"
        done)
  done;
  ignore served;
  nclients * per_client
