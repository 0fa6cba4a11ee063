(* Chrome trace_event JSON exporter: pid = vmpl, tid = vcpu, so each
   privilege level (VeilOS, VeilMon, enclaves, ...) is a trace
   "process" whose VCPUs are its "threads" — Perfetto then groups
   tracks by privilege domain, which is how the paper reads. *)

let phase_letter = function
  | Trace.Instant -> "i"
  | Trace.Begin -> "B"
  | Trace.End -> "E"
  | Trace.Complete -> "X"

let opt cond field = if cond then [ field ] else []

let to_json ?pulse t =
  (* Complete spans are recorded at their end but stamped with their
     start, so the emission order is not timestamp order; viewers want
     (and the tests assert) sorted output. *)
  let evs =
    List.stable_sort (fun a b -> compare a.Trace.ev_ts b.Trace.ev_ts) (Trace.events t)
  in
  let buf = Buffer.create 4096 in
  let first = ref true in
  let emit (ev : Json.t) =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf "\n  ";
    Json.to_buffer buf ev
  in
  Buffer.add_string buf "{\"traceEvents\":[";
  (* Ring wraparound is not silent: say how many events this export is
     missing, as a global instant pinned at the window's start. *)
  if Trace.dropped t > 0 then begin
    let ts0 = match evs with ev :: _ -> ev.Trace.ev_ts | [] -> 0 in
    emit
      (Obj
         [ ("name", String "trace_truncated"); ("cat", String "veil"); ("ph", String "i");
           ("s", String "g"); ("ts", Int ts0); ("pid", Int 0); ("tid", Int 0);
           ("args", Obj [ ("dropped", Int (Trace.dropped t)) ]) ])
  end;
  let meta kind pid tid name =
    emit
      (Obj
         [ ("name", String kind); ("ph", String "M"); ("pid", Int pid); ("tid", Int tid);
           ("args", Obj [ ("name", String name) ]) ])
  in
  (* Metadata: name every VMPL process and VCPU thread we will use. *)
  let seen_pids = Hashtbl.create 8 and seen_tids = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let pid = ev.Trace.ev_vmpl and tid = ev.Trace.ev_vcpu in
      if not (Hashtbl.mem seen_pids pid) then begin
        Hashtbl.replace seen_pids pid ();
        meta "process_name" pid 0 ("vmpl" ^ string_of_int pid)
      end;
      if not (Hashtbl.mem seen_tids (pid, tid)) then begin
        Hashtbl.replace seen_tids (pid, tid) ();
        meta "thread_name" pid tid ("vcpu" ^ string_of_int tid)
      end)
    evs;
  List.iter
    (fun (ev : Trace.event) ->
      let args : Json.t =
        Obj
          (opt (ev.ev_bucket <> "") ("bucket", Json.String ev.ev_bucket)
          @ opt (ev.ev_id <> 0) ("id", Json.Int ev.ev_id)
          @ [ ("arg", Int ev.ev_arg); ("cycles", Int ev.ev_ts) ])
      in
      emit
        (Obj
           ([ ("name", Json.String (Trace.kind_name ev.ev_kind)); ("cat", String "veil");
              ("ph", String (phase_letter ev.ev_phase)) ]
           @ opt (ev.ev_phase = Trace.Instant) ("s", Json.String "t")
           @ [ ("ts", Json.Int ev.ev_ts) ]
           @ opt (ev.ev_phase = Trace.Complete) ("dur", Json.Int ev.ev_dur)
           @ [ ("pid", Json.Int ev.ev_vmpl); ("tid", Int ev.ev_vcpu); ("args", args) ])))
    evs;
  (* Flow events: one s -> t* -> f chain per causal id that hops
     between (vmpl, vcpu) lanes, so Perfetto draws the request's
     journey across privilege levels as arrows. *)
  let by_id : (int, Trace.event list) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun ev ->
      if ev.Trace.ev_id <> 0 && ev.Trace.ev_phase <> Trace.End then
        Hashtbl.replace by_id ev.Trace.ev_id
          (ev :: Option.value ~default:[] (Hashtbl.find_opt by_id ev.Trace.ev_id)))
    evs;
  let flow_ids =
    List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) by_id [])
  in
  let flow_point ph (ev : Trace.event) =
    emit
      (Obj
         ([ ("name", Json.String "req"); ("cat", String "veil.flow"); ("ph", String ph) ]
         @ opt (ph = "f") ("bp", Json.String "e")
         @ [ ("id", Json.Int ev.ev_id); ("ts", Int ev.ev_ts); ("pid", Int ev.ev_vmpl);
             ("tid", Int ev.ev_vcpu) ]))
  in
  List.iter
    (fun id ->
      let points = List.rev (Hashtbl.find by_id id) in
      let lanes =
        List.sort_uniq compare
          (List.map (fun ev -> (ev.Trace.ev_vmpl, ev.Trace.ev_vcpu)) points)
      in
      match points with
      | first :: (_ :: _ as rest) when List.length lanes > 1 ->
          flow_point "s" first;
          let rec steps prev = function
            | [ last ] -> flow_point "f" last
            | ev :: rest ->
                if (ev.Trace.ev_vmpl, ev.Trace.ev_vcpu) <> prev then flow_point "t" ev;
                steps (ev.Trace.ev_vmpl, ev.Trace.ev_vcpu) rest
            | [] -> ()
          in
          steps (first.Trace.ev_vmpl, first.Trace.ev_vcpu) rest
      | _ -> ())
    flow_ids;
  (* Veil-Pulse counter tracks (ph "C"): one sample per retained
     interval, stamped at the interval's close, so Perfetto draws
     metric lanes (syscall rate, windowed p99, exit rate) under the
     span tracks.  Counters are per-pid; they ride on vmpl0. *)
  (match pulse with
  | Some pu when Pulse.retained pu > 0 ->
      let track name t1 v =
        emit
          (Obj
             [ ("name", String name); ("cat", String "veil.pulse"); ("ph", String "C");
               ("ts", Int t1); ("pid", Int 0); ("args", Obj [ ("value", Int v) ]) ])
      in
      for i = Pulse.first_retained pu to Pulse.captured pu - 1 do
        match Pulse.bounds pu i with
        | None -> ()
        | Some (_, t1) ->
            let n, p99 =
              match Pulse.hist_window pu ~metric:"kernel.syscall_cycles" ~window:1 ~upto:i with
              | Some (b, n, _) -> (n, Metrics.bucket_percentile ~buckets:b 99.0)
              | None -> (0, 0)
            in
            let exits =
              match Pulse.counter_delta pu ~metric:"platform.vmgexit" i with
              | Some v -> v
              | None -> 0
            in
            track "pulse.syscalls" t1 n;
            track "pulse.p99_cycles" t1 p99;
            track "pulse.vmgexits" t1 exits
      done
  | _ -> ());
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ns\"}\n";
  Buffer.contents buf
