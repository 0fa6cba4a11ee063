(* Every metric the benchmark prints, with its unit.  End-to-end
   metrics are printed with tracing off ([--trace 0]), per-layer
   metrics by the traced run ([--trace 1]).  BENCHMARK.json lists the
   same names and units (and which way is better); the smoke test
   checks the two agree. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("host_ops_per_s", "ops/s");
    ("host_op_p50_us", "us");
    ("host_op_p99_us", "us");
    ("alloc_words_per_op", "words");
    ("host_peak_heap_mb", "MiB");
    ("sim_ops_per_s", "ops/sim-s");
    ("sim_op_p50_cycles", "cycles");
    ("sim_op_p99_cycles", "cycles");
    ("sim_sojourn_mean_cycles", "cycles");
  ]

let per_layer =
  [
    ("sevsnp.vmgexits_per_op", "count");
    ("sevsnp.switch_cycles_per_op", "cycles");
    ("sevsnp.copy_cycles_per_op", "cycles");
    ("sevsnp.rmp_ops_per_op", "count");
    ("sevsnp.tlb_hit_ratio", "ratio");
    ("sevsnp.npf", "count");
    ("hypervisor.domain_switches_per_op", "count");
    ("hypervisor.interrupts_per_op", "count");
    ("hypervisor.relay_faults", "count");
    ("guest_kernel.syscalls_per_op", "count");
    ("guest_kernel.kernel_cycles_per_op", "cycles");
    ("guest_kernel.invoke_self_ns_p50", "ns");
    ("guest_kernel.sched_steals", "count");
    ("guest_kernel.errors", "count");
    ("veil_core.os_calls_per_op", "count");
    ("veil_core.monitor_cycles_per_op", "cycles");
    ("veil_core.monitor_busy_share", "ratio");
    ("veil_core.monitor_queued_cycles_per_op", "cycles");
    ("veil_core.slog_appends_per_op", "count");
    ("veil_core.audit_hook_ns_p50", "ns");
    ("veil_core.pt_sync_hook_ns_p50", "ns");
    ("veil_core.enclave_switches_per_op", "count");
    ("veil_core.retries", "count");
    ("veil_core.boot_host_ms", "ms");
    ("enclave_sdk.ocalls_per_op", "count");
    ("enclave_sdk.redirect_bytes_per_op", "bytes");
    ("enclave_sdk.redirect_cycles_per_op", "cycles");
    ("enclave_sdk.exit_cycles_per_op", "cycles");
    ("enclave_sdk.ocall_ns_p50", "ns");
    ("veil_crypto.crypto_cycles_per_op", "cycles");
    ("workloads.compute_cycles_per_op", "cycles");
    ("workloads.page_io_per_op", "count");
    ("workloads.exec_self_ns_p50", "ns");
    ("fleet.mean_service_cycles", "cycles");
    ("fleet.lane_utilization", "ratio");
    ("fleet.achieved_over_offered", "ratio");
    ("fleet.monitor_busy_share", "ratio");
    ("host.minor_gcs_per_kop", "count");
    ("host.major_gcs", "count");
    ("bench.trace_overhead_pct", "%");
    ("bench.failed_ops_ratio", "ratio");
  ]

let unit_of name =
  match List.assoc_opt name (end_to_end @ per_layer) with
  | Some u -> u
  | None -> invalid_arg ("Spec.unit_of: unknown metric " ^ name)
