(* Veil-Pulse tests (ISSUE 8): interval-ring wraparound, delta
   encoding across registry resets, windowed-vs-cumulative percentile
   divergence, exactly-on-target SLO burn, the lazy-gauge refresh
   hook, pulse-off schedule/cost identity, and a 20-seed export-tamper
   detection sweep. *)

module M = Obs.Metrics
module Pu = Obs.Pulse
module Tr = Obs.Trace
module FP = Chaos.Fault_plan
module B = Veil_core.Boot
module K = Guest_kernel.Kernel
module Kt = Guest_kernel.Ktypes
module S = Guest_kernel.Sysno
module Es = Workloads.Escale

(* --- interval ring --- *)

let test_ring_wraparound () =
  let m = M.create () in
  let c = M.counter m "ops" in
  let pu = Pu.create ~ring_cap:4 ~metrics:m () in
  Pu.arm pu ~interval:100 ~now:0;
  for k = 1 to 8 do
    M.add c (10 * k);
    Alcotest.(check bool) "capture fires" true (Pu.tick pu ~now:(k * 100))
  done;
  Alcotest.(check int) "captured" 8 (Pu.captured pu);
  Alcotest.(check int) "retained clamps to ring" 4 (Pu.retained pu);
  Alcotest.(check int) "overwritten" 4 (Pu.overwritten pu);
  Alcotest.(check int) "first retained" 4 (Pu.first_retained pu);
  Alcotest.(check (option (pair int int))) "evicted interval unreadable" None (Pu.bounds pu 3);
  Alcotest.(check (option (pair int int))) "oldest retained bounds" (Some (400, 500))
    (Pu.bounds pu 4);
  (* interval k (0-based) saw one add of 10*(k+1) *)
  Alcotest.(check (option int)) "newest delta" (Some 80) (Pu.counter_delta pu ~metric:"ops" 7);
  Alcotest.(check (option int)) "oldest retained delta" (Some 50)
    (Pu.counter_delta pu ~metric:"ops" 4)

let test_armed_no_elapse_no_capture () =
  let m = M.create () in
  let pu = Pu.create ~metrics:m () in
  Pu.arm pu ~interval:1_000 ~now:0;
  Alcotest.(check bool) "below epoch: no capture" false (Pu.tick pu ~now:999);
  Alcotest.(check int) "nothing captured" 0 (Pu.captured pu);
  Alcotest.(check bool) "disarmed tick is inert" false
    (Pu.disarm pu;
     Pu.tick pu ~now:1_000_000)

let test_flush_closes_partial_epoch () =
  let m = M.create () in
  let c = M.counter m "ops" in
  let pu = Pu.create ~metrics:m () in
  Pu.arm pu ~interval:1_000 ~now:0;
  M.add c 7;
  ignore (Pu.tick pu ~now:400);
  Alcotest.(check int) "no capture yet" 0 (Pu.captured pu);
  Pu.flush pu ~now:400;
  Alcotest.(check int) "flush captured the tail" 1 (Pu.captured pu);
  Alcotest.(check (option int)) "tail delta" (Some 7) (Pu.counter_delta pu ~metric:"ops" 0)

(* --- delta encoding across a registry reset --- *)

let test_delta_across_reset () =
  let m = M.create () in
  let c = M.counter m "ops" in
  let pu = Pu.create ~metrics:m () in
  Pu.arm pu ~interval:100 ~now:0;
  M.add c 100;
  ignore (Pu.tick pu ~now:100);
  Alcotest.(check (option int)) "first delta" (Some 100) (Pu.counter_delta pu ~metric:"ops" 0);
  (* a reset drops the cumulative value below the previous snapshot:
     Prometheus counter-reset semantics say the post-reset value IS
     the delta, never a negative number *)
  M.reset m;
  M.add c 5;
  ignore (Pu.tick pu ~now:200);
  Alcotest.(check (option int)) "delta after reset is the new value" (Some 5)
    (Pu.counter_delta pu ~metric:"ops" 1)

(* --- windowed vs cumulative percentiles on bimodal load --- *)

let test_windowed_vs_cumulative () =
  let m = M.create () in
  let h = M.histogram m "lat" in
  let pu = Pu.create ~metrics:m () in
  Pu.arm pu ~interval:100 ~now:0;
  (* interval 0: fast mode *)
  for _ = 1 to 90 do
    M.observe h 100
  done;
  ignore (Pu.tick pu ~now:100);
  (* interval 1: slow mode *)
  for _ = 1 to 10 do
    M.observe h 100_000
  done;
  ignore (Pu.tick pu ~now:200);
  let cumulative_p50 = M.percentile h 50.0 in
  let windowed_p50 =
    match Pu.hist_window pu ~metric:"lat" ~window:1 ~upto:1 with
    | Some (b, _, _) -> M.bucket_percentile ~buckets:b 50.0
    | None -> Alcotest.fail "no window"
  in
  (* 90 of 100 cumulative observations are fast, so the cumulative p50
     sits in the fast mode's bucket; interval 1 alone is all slow *)
  Alcotest.(check int) "cumulative p50 in the fast bucket" 127 cumulative_p50;
  Alcotest.(check int) "windowed p50 in the slow bucket" 131071 windowed_p50;
  (* merging both intervals reproduces the cumulative view *)
  match Pu.hist_window pu ~metric:"lat" ~window:2 ~upto:1 with
  | Some (b, n, _) ->
      Alcotest.(check int) "window covers everything" 100 n;
      Alcotest.(check int) "2-interval windowed p50 = cumulative" cumulative_p50
        (M.bucket_percentile ~buckets:b 50.0)
  | None -> Alcotest.fail "no 2-interval window"

(* --- SLO burn at exactly-on-target --- *)

let test_slo_exactly_on_target () =
  let m = M.create () in
  let h = M.histogram m "lat" in
  let tr = Tr.create ~capacity:64 () in
  Tr.set_enabled tr true;
  let pu = Pu.create ~metrics:m () in
  Pu.set_tracer pu (Some tr);
  (* 90% of observations must land in buckets wholly <= 1023 cycles *)
  Pu.objective pu ~name:"latency" ~metric:"lat" ~good_below:1023 ~slo:0.9 ~window:8;
  Pu.arm pu ~interval:100 ~now:0;
  for _ = 1 to 9 do
    M.observe h 512 (* bucket hi 1023: good *)
  done;
  M.observe h 2000 (* bucket hi 2047: bad *);
  ignore (Pu.tick pu ~now:100);
  (match Pu.burn_reports pu with
  | [ br ] ->
      Alcotest.(check int) "window total" 10 br.Pu.br_total;
      Alcotest.(check int) "window bad" 1 br.Pu.br_bad;
      Alcotest.(check (float 1e-9)) "burn exactly 1.0" 1.0 br.Pu.br_burn;
      Alcotest.(check bool) "on-budget does NOT cross" false br.Pu.br_crossed;
      Alcotest.(check int) "no crossings" 0 br.Pu.br_crossings
  | _ -> Alcotest.fail "expected one burn report");
  Alcotest.(check int) "no trace instant yet" 0 (Tr.emitted tr);
  (* one more bad observation tips the window strictly over budget *)
  M.observe h 2000;
  ignore (Pu.tick pu ~now:200);
  (match Pu.burn_reports pu with
  | [ br ] ->
      Alcotest.(check bool) "over budget crosses" true br.Pu.br_crossed;
      Alcotest.(check int) "one edge-triggered crossing" 1 br.Pu.br_crossings
  | _ -> Alcotest.fail "expected one burn report");
  match List.filter (fun e -> e.Tr.ev_phase = Tr.Instant) (Tr.events tr) with
  | [ ev ] ->
      Alcotest.(check string) "crossing event name" "slo.latency" (Tr.kind_name ev.Tr.ev_kind);
      Alcotest.(check string) "crossing event bucket" "pulse" ev.Tr.ev_bucket
  | evs -> Alcotest.failf "expected exactly one crossing instant, got %d" (List.length evs)

(* --- lazy-gauge refresh hook --- *)

let test_refresh_hook () =
  let m = M.create () in
  let g = M.gauge m "depth" in
  let src = ref 0 in
  M.set_refresh m (fun () -> M.set g !src);
  src := 42;
  (* to_json refreshes before rendering — the gauge can never be stale
     in an export *)
  Alcotest.(check bool) "to_json sees the fresh value" true
    (match Obs.Json.parse (M.to_json m) with
    | Ok j -> Option.bind (Obs.Json.member "gauges" j) (Obs.Json.member "depth") = Some (Int 42)
    | Error _ -> false);
  Alcotest.(check int) "gauge refreshed" 42 (M.gauge_value g);
  (* the sampler refreshes too: a capture must snapshot the current
     source value, not whatever the gauge held at arm time *)
  let pu = Pu.create ~metrics:m () in
  Pu.arm pu ~interval:100 ~now:0;
  src := 77;
  ignore (Pu.tick pu ~now:100);
  Alcotest.(check (option int)) "sampled interval sees the fresh gauge" (Some 77)
    (Pu.gauge_at pu ~metric:"depth" 0)

let test_platform_trace_dropped_fresh () =
  let sys = B.boot_veil ~npages:1024 ~seed:5 () in
  let platform = sys.B.platform in
  let tr = platform.Sevsnp.Platform.tracer in
  Tr.set_enabled tr true;
  for i = 0 to Tr.capacity tr + 9 do
    Tr.emit tr ~vcpu:0 ~vmpl:0 ~ts:i Tr.Vmgexit
  done;
  Tr.set_enabled tr false;
  M.refresh platform.Sevsnp.Platform.metrics;
  match M.find platform.Sevsnp.Platform.metrics "trace.dropped" with
  | Some (M.Gauge g) ->
      Alcotest.(check int) "trace.dropped gauge tracks the ring" (Tr.dropped tr)
        (M.gauge_value g)
  | _ -> Alcotest.fail "no trace.dropped gauge"

(* --- pulse-off identity: schedules and switch legs unperturbed --- *)

let test_pulse_off_schedule_identity () =
  let spawn_work = Es.syscall_work ~ops_total:128 in
  let r_off, _ = Es.measure ~nvcpus:2 ~seed:7 ~spawn_work () in
  let r_off2, _ = Es.measure ~nvcpus:2 ~seed:7 ~spawn_work () in
  Alcotest.(check string) "pulse-off journal deterministic" r_off.Es.es_journal
    r_off2.Es.es_journal;
  let r_on, sys = Es.measure ~pulse:200_000 ~nvcpus:2 ~seed:7 ~spawn_work () in
  (* sampling charges cycles but must not perturb a single scheduling
     decision: the interleaver journal stays byte-identical *)
  Alcotest.(check string) "pulse-on journal byte-identical" r_off.Es.es_journal
    r_on.Es.es_journal;
  Alcotest.(check int) "same ops" r_off.Es.es_ops r_on.Es.es_ops;
  let pu = sys.B.platform.Sevsnp.Platform.pulse in
  Alcotest.(check bool) "run produced intervals" true (Pu.captured pu > 0);
  (* armed cost model: wall grows by exactly pulse_sample per capture
     charged on the capturing VCPU, so the drift is bounded by it *)
  let drift = r_on.Es.es_busy - r_off.Es.es_busy in
  Alcotest.(check bool) "busy drift = captures x sample cost" true
    (drift >= 0 && drift <= Pu.captured pu * Sevsnp.Cycles.pulse_sample)

let test_pulse_switch_leg_identity () =
  let sys = B.boot_veil ~npages:1024 ~seed:5 () in
  let platform = sys.B.platform in
  let vcpu = sys.B.vcpu in
  let pu = platform.Sevsnp.Platform.pulse in
  let roundtrip () =
    let t0 = Sevsnp.Vcpu.rdtsc vcpu in
    Veil_core.Monitor.domain_switch sys.B.mon vcpu ~target:Veil_core.Privdom.Mon;
    Veil_core.Monitor.domain_switch sys.B.mon vcpu ~target:Veil_core.Privdom.Unt;
    Sevsnp.Vcpu.rdtsc vcpu - t0
  in
  let base = roundtrip () in
  (* armed with an epoch that never elapses: the E2 switch legs are
     byte-identical to disarmed *)
  Pu.arm pu ~interval:max_int ~now:(Sevsnp.Vcpu.rdtsc vcpu);
  Alcotest.(check int) "armed no-capture roundtrip identical" base (roundtrip ());
  Pu.disarm pu;
  Alcotest.(check int) "disarmed again identical" base (roundtrip ());
  (* an epoch of 1 cycle captures at every world exit: the cost is
     exactly the modeled sample charge per capture, nothing hidden *)
  Pu.arm pu ~interval:1 ~now:(Sevsnp.Vcpu.rdtsc vcpu);
  let before = Pu.captured pu in
  let with_pulse = roundtrip () in
  let captures = Pu.captured pu - before in
  Pu.disarm pu;
  Alcotest.(check bool) "tiny epoch captures" true (captures > 0);
  Alcotest.(check int) "armed cost = captures x pulse_sample" base
    (with_pulse - (captures * Sevsnp.Cycles.pulse_sample))

(* --- attested export: 20-seed tamper detection sweep --- *)

let drive_pulse sys =
  let kernel = sys.B.kernel in
  let vcpu = sys.B.vcpu in
  let pu = sys.B.platform.Sevsnp.Platform.pulse in
  Guest_kernel.Audit.set_rules (K.audit kernel) [ S.Open ];
  Pu.arm pu ~interval:150_000 ~now:(Sevsnp.Vcpu.rdtsc vcpu);
  let proc = K.spawn kernel in
  for i = 0 to 49 do
    ignore
      (K.invoke kernel proc S.Open
         [ Kt.Str (Printf.sprintf "/tmp/t%d" i); Kt.Int 0x42; Kt.Int 0o644 ])
  done;
  Pu.flush pu ~now:(Sevsnp.Vcpu.rdtsc vcpu);
  Pu.disarm pu;
  pu

let test_export_verifies_clean () =
  let sys = B.boot_veil ~npages:1024 ~seed:5 () in
  let pu = drive_pulse sys in
  Alcotest.(check bool) "several intervals" true (Pu.captured pu >= 3);
  (match Pu.verify_export pu (Pu.export pu) with
  | Ok n -> Alcotest.(check int) "all retained intervals verify" (Pu.retained pu) n
  | Error (i, reason) -> Alcotest.failf "clean export rejected at %d: %s" i reason);
  (* the platform export path with chaos disarmed is the same clean
     series *)
  match Pu.verify_export pu (Sevsnp.Platform.export_pulse sys.B.platform) with
  | Ok _ -> ()
  | Error (i, reason) -> Alcotest.failf "platform export rejected at %d: %s" i reason

let test_tamper_sweep () =
  for seed = 1 to 20 do
    let sys = B.boot_veil ~npages:1024 ~seed:5 () in
    let pu = drive_pulse sys in
    let plan = FP.create ~seed () in
    FP.set_site plan FP.Pulse_export_tamper ~prob:1.0 ();
    Sevsnp.Platform.arm_chaos sys.B.platform plan;
    let tampered = Sevsnp.Platform.export_pulse sys.B.platform in
    Sevsnp.Platform.disarm_chaos sys.B.platform;
    Alcotest.(check int)
      (Printf.sprintf "seed %d: tamper site fired" seed)
      1
      (FP.hits plan FP.Pulse_export_tamper);
    match Pu.verify_export pu tampered with
    | Ok _ -> Alcotest.failf "seed %d: tampered export accepted" seed
    | Error (i, _) ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: flagged interval in range" seed)
          true
          (i >= Pu.first_retained pu && i <= Pu.captured pu)
  done

let test_anchor_lines_in_slog () =
  let sys = B.boot_veil ~npages:1024 ~seed:5 () in
  let pu = drive_pulse sys in
  let n = B.anchor_pulse sys in
  Alcotest.(check int) "every interval anchored" (Pu.captured pu) n;
  Alcotest.(check int) "anchor lines in VeilS-LOG" (Pu.captured pu)
    (List.length (B.pulse_anchor_lines sys));
  Alcotest.(check int) "pending drained" 0 (Pu.pending_anchors pu);
  (* anchoring is idempotent once drained *)
  Alcotest.(check int) "re-anchor is a no-op" 0 (B.anchor_pulse sys)

let suite =
  [
    Alcotest.test_case "interval ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "armed no-elapse no-capture" `Quick test_armed_no_elapse_no_capture;
    Alcotest.test_case "flush closes partial epoch" `Quick test_flush_closes_partial_epoch;
    Alcotest.test_case "delta across registry reset" `Quick test_delta_across_reset;
    Alcotest.test_case "windowed vs cumulative percentiles" `Quick test_windowed_vs_cumulative;
    Alcotest.test_case "SLO burn exactly on target" `Quick test_slo_exactly_on_target;
    Alcotest.test_case "lazy-gauge refresh hook" `Quick test_refresh_hook;
    Alcotest.test_case "platform trace.dropped freshness" `Quick test_platform_trace_dropped_fresh;
    Alcotest.test_case "pulse-off schedule identity" `Quick test_pulse_off_schedule_identity;
    Alcotest.test_case "pulse switch-leg identity" `Quick test_pulse_switch_leg_identity;
    Alcotest.test_case "clean export verifies" `Quick test_export_verifies_clean;
    Alcotest.test_case "20-seed tamper detection sweep" `Quick test_tamper_sweep;
    Alcotest.test_case "anchors drain into VeilS-LOG" `Quick test_anchor_lines_in_slog;
  ]
