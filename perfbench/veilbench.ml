(* Veil-Bench: one workload, one seed, one measuring process.

     veilbench --workload audit-smp|enclave-sql|fleet-http --seed N
               --seconds S --trace 0|1 [--small] [--corrupt ORACLE]
               [--out DIR] [--setup-only]

   Prints every metric by name and unit (sample counts next to
   percentiles), then, as the last line, one JSON object with
   [correct], [attempted], [failed] and [metrics]: the end-to-end
   metrics with [--trace 0], the per-layer metrics with [--trace 1].
   Exits 1 when any correctness oracle fails.  A traced run also
   writes its spans (Chrome trace_event JSON) and a per-layer
   self-time table under [--out].  An untraced run also times set-up
   in fresh copies of itself, started with [--setup-only] one at a
   time, since lazy initialisation runs once per process. *)

let workloads =
  [ ("audit-smp", Audit_smp.run); ("enclave-sql", Enclave_sql.run); ("fleet-http", Fleet_http.run) ]

let oracles =
  [ "getpid"; "read-content"; "slog-chain"; "slog-count"; "sql-reference"; "encsvc-degraded";
    "fleet-served"; "fleet-slog"; "fleet-log-fetch" ]

let usage () =
  prerr_endline
    "usage: veilbench --workload audit-smp|enclave-sql|fleet-http --seed N --seconds S --trace 0|1 \
     [--small] [--corrupt ORACLE] [--out DIR] [--setup-only]";
  exit 2

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let small = ref false and setup_only = ref false and corrupt = ref None and out_dir = ref "perfbench/out" in
  let rec go = function
    | "--workload" :: w :: rest when List.mem_assoc w workloads ->
        workload := Some w;
        go rest
    | "--seed" :: n :: rest when int_of_string_opt n <> None ->
        seed := int_of_string_opt n;
        go rest
    | "--seconds" :: s :: rest when float_of_string_opt s <> None ->
        seconds := float_of_string_opt s;
        go rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
        trace := Some (t = "1");
        go rest
    | "--small" :: rest ->
        small := true;
        go rest
    | "--setup-only" :: rest ->
        setup_only := true;
        go rest
    | "--corrupt" :: o :: rest when List.mem o oracles ->
        corrupt := Some o;
        go rest
    | "--out" :: d :: rest ->
        out_dir := d;
        go rest
    | [] -> ()
    | a :: _ ->
        prerr_endline ("veilbench: bad argument " ^ a);
        usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace ->
      {
        Harness.workload;
        seed;
        seconds;
        trace;
        small = !small;
        setup_only = !setup_only;
        corrupt = !corrupt;
        out_dir = !out_dir;
      }
  | _ -> usage ()

(* JSON numbers: all digits as measured, never NaN or infinite. *)
let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let write_trace cfg tr =
  mkdir_p cfg.Harness.out_dir;
  let base =
    Filename.concat cfg.Harness.out_dir (Printf.sprintf "%s-seed%d" cfg.Harness.workload cfg.Harness.seed)
  in
  Span.write_chrome tr (base ^ ".trace.json");
  let oc = open_out (base ^ ".selftime.txt") in
  output_string oc (Span.self_table tr);
  close_out oc;
  base

let () =
  let cfg = parse Sys.argv in
  let tr = Span.create () in
  let r = Harness.new_result () in
  (List.assoc cfg.Harness.workload workloads) cfg tr r;
  Harness.report_setup cfg r tr;
  let failed_ratio = Harness.per r.Harness.failed r.Harness.attempted in
  Harness.set r "bench.failed_ops_ratio" ~n:r.Harness.attempted failed_ratio;
  let correct = r.Harness.mismatches = [] && r.Harness.attempted > 0 in
  Printf.printf "veilbench workload=%s seed=%d seconds=%g trace=%d\n" cfg.Harness.workload
    cfg.Harness.seed cfg.Harness.seconds (Bool.to_int cfg.Harness.trace);
  List.iter print_endline (List.rev r.Harness.notes);
  let specs = if cfg.Harness.trace then Spec.per_layer else Spec.end_to_end in
  let line (name, unit) =
    match Hashtbl.find_opt r.Harness.values name with
    | Some { Harness.v; n; note } ->
        Printf.printf "  %-40s %16.4f %-10s%s%s\n" name v unit
          (if n >= 0 then Printf.sprintf " n=%d" n else "")
          (if note = "" then "" else "  (" ^ note ^ ")");
        (name, v, unit)
    | None ->
        Printf.printf "  %-40s %16.4f %-10s  (not observed on this workload)\n" name 0.0 unit;
        (name, 0.0, unit)
  in
  let printed = List.map line specs in
  (* the simulated-clock figures in both modes: a traced run must
     reproduce them exactly *)
  Printf.printf "simulated:%s\n"
    (String.concat ""
       (List.filter_map
          (fun (name, _) ->
            match Hashtbl.find_opt r.Harness.values name with
            | Some { Harness.v; _ } when String.length name > 4 && String.sub name 0 4 = "sim_" ->
                Some (Printf.sprintf " %s=%.17g" name v)
            | _ -> None)
          Spec.end_to_end));
  Printf.printf "  %-40s %16.4f %-10s n=%d (failed %d)\n" "failed_ops_ratio" failed_ratio "ratio"
    r.Harness.attempted r.Harness.failed;
  if cfg.Harness.trace then begin
    let base = write_trace cfg tr in
    print_string (Span.self_table tr);
    Printf.printf "spans: %d retained, %d beyond capacity; written to %s.trace.json\n" tr.Span.n
      tr.Span.dropped base
  end;
  List.iter (fun m -> prerr_endline ("MISMATCH " ^ m)) (List.rev r.Harness.mismatches);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    r.Harness.attempted r.Harness.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_num v) unit)
          printed));
  if not correct then exit 1
