(** Chrome [trace_event] exporter.

    Serializes a {!Trace.t} into the JSON Array/Object format that
    [chrome://tracing] and Perfetto load: one trace "process" per VMPL
    (privilege domain) and one "thread" per VCPU within it, each named
    by [process_name]/[thread_name] metadata records, so domain
    switches read as control bouncing between the vmpl0..vmpl3 process
    groups.

    Phases map directly: [Instant -> "i"], [Begin -> "B"],
    [End -> "E"], [Complete -> "X"] (with [dur]).  The attribution
    bucket, the kind-specific [arg], and the causal trace id (when
    nonzero) ride along in ["args"]. *)

val to_json : ?pulse:Pulse.t -> Trace.t -> string
(** Export all buffered events, one per line.  Timestamps ([ts],
    [dur]) are raw simulated cycles.

    With [pulse], one Chrome counter track sample (ph ["C"]) per
    retained Veil-Pulse interval is appended for the core series —
    per-interval syscall count, windowed p99 of
    [kernel.syscall_cycles], and [platform.vmgexit] delta — so
    Perfetto renders metric lanes alongside the span tracks. *)
