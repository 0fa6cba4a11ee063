(* Benchmark-side span recorder for the traced run.

   Spans are opened and closed from the benchmark's own code around
   calls into each layer's public functions (and inside the kernel
   hooks and enclave ocall wrappers the benchmark installs).  Each span
   records its kind, host start and end (ns), parent span and op id.
   A layer's self time is the span's duration minus the time its child
   spans cover; it is computed when the span closes, for every span,
   while only the first [capacity] spans are retained for the written
   trace.  Recording charges no simulated cycles, so a traced run
   reproduces the untraced run's simulated numbers exactly.  Disarmed,
   [enter]/[leave] are a single flag test. *)

type kind = int

let k_op = 0
let k_invoke = 1
let k_hook_audit = 2
let k_hook_pt_sync = 3
let k_hook_other = 4
let k_exec = 5
let k_checkpoint = 6
let k_ocall = 7
let k_boot = 8
let k_bring_up = 9
let k_rt_create = 10
let k_fleet_run = 11

let names =
  [|
    "op";
    "Kernel.invoke";
    "Kernel.hooks.h_audit";
    "Kernel.hooks.h_pt_sync";
    "Kernel.hooks.other";
    "Sqldb.exec";
    "Sqldb.checkpoint";
    "Runtime.ocall";
    "Boot.boot_veil";
    "Smp.bring_up";
    "Runtime.create";
    "Fleet.run";
  |]

(* the layer (dune library) each span kind times *)
let layers =
  [|
    "bench";
    "guest_kernel";
    "veil_core";
    "veil_core";
    "veil_core";
    "workloads";
    "workloads";
    "enclave_sdk";
    "veil_core";
    "veil_core";
    "enclave_sdk";
    "fleet";
  |]

let nkinds = Array.length names
let max_depth = 64

(* spans retained for the written trace *)
let capacity = 16384

type t = {
  mutable on : bool;
  mutable op : int;
  epoch : int;
  (* open-span stack *)
  st_kind : int array;
  st_start : int array;
  st_child : int array;
  st_idx : int array;
  mutable depth : int;
  (* retained spans *)
  sp_kind : int array;
  sp_start : int array;
  sp_end : int array;
  sp_parent : int array;
  sp_op : int array;
  mutable n : int;
  mutable dropped : int;
  self : Samples.t array;  (** per-kind self time, ns, every closed span *)
  total : Samples.t array;  (** per-kind duration, ns *)
}

let create () =
  {
    on = false;
    op = -1;
    epoch = Clock.now_ns ();
    st_kind = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    st_idx = Array.make max_depth 0;
    depth = 0;
    sp_kind = Array.make capacity 0;
    sp_start = Array.make capacity 0;
    sp_end = Array.make capacity 0;
    sp_parent = Array.make capacity 0;
    sp_op = Array.make capacity 0;
    n = 0;
    dropped = 0;
    self = Array.init nkinds (fun _ -> Samples.create ());
    total = Array.init nkinds (fun _ -> Samples.create ());
  }

(* Arm or disarm between ops only: a span opened armed must close armed. *)
let set_on t on =
  if t.depth <> 0 then invalid_arg "Span.set_on: spans still open";
  t.on <- on

let set_op t id = t.op <- id

let enter t k =
  if t.on then begin
    let d = t.depth in
    let now = Clock.now_ns () in
    t.st_kind.(d) <- k;
    t.st_start.(d) <- now;
    t.st_child.(d) <- 0;
    let idx =
      if t.n < capacity then begin
        let i = t.n in
        t.n <- i + 1;
        t.sp_kind.(i) <- k;
        t.sp_start.(i) <- now - t.epoch;
        t.sp_end.(i) <- now - t.epoch;
        t.sp_parent.(i) <- (if d > 0 then t.st_idx.(d - 1) else -1);
        t.sp_op.(i) <- t.op;
        i
      end
      else begin
        t.dropped <- t.dropped + 1;
        -1
      end
    in
    t.st_idx.(d) <- idx;
    t.depth <- d + 1
  end

let leave t =
  if t.on && t.depth > 0 then begin
    let d = t.depth - 1 in
    t.depth <- d;
    let now = Clock.now_ns () in
    let dur = now - t.st_start.(d) in
    let k = t.st_kind.(d) in
    Samples.push t.self.(k) (dur - t.st_child.(d));
    Samples.push t.total.(k) dur;
    if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
    let idx = t.st_idx.(d) in
    if idx >= 0 then t.sp_end.(idx) <- now - t.epoch
  end

let wrap t k f =
  if not t.on then f ()
  else begin
    enter t k;
    match f () with
    | v ->
        leave t;
        v
    | exception e ->
        leave t;
        raise e
  end

(* Per-layer self-time table, one line per span kind with samples. *)
let self_table t =
  let grand = Array.fold_left (fun acc s -> acc + Samples.sum s) 0 t.self in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-24s %-13s %9s %12s %12s %7s\n" "span" "layer" "n" "self_p50_ns"
       "self_total_ms" "share%");
  Array.iteri
    (fun k s ->
      let n = Samples.count s in
      if n > 0 then
        Buffer.add_string buf
          (Printf.sprintf "%-24s %-13s %9d %12d %12.3f %7.2f\n" names.(k) layers.(k) n
             (Samples.percentile s 50.0)
             (float_of_int (Samples.sum s) /. 1e6)
             (if grand = 0 then 0.0 else 100.0 *. float_of_int (Samples.sum s) /. float_of_int grand)))
    t.self;
  Buffer.contents buf

(* Chrome trace_event JSON of the retained spans (load in Perfetto). *)
let write_chrome t path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  for i = 0 to t.n - 1 do
    if i > 0 then output_char oc ',';
    Printf.fprintf oc
      "\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":0,\
       \"args\":{\"id\":%d,\"parent\":%d,\"op\":%d}}"
      names.(t.sp_kind.(i)) layers.(t.sp_kind.(i))
      (float_of_int t.sp_start.(i) /. 1e3)
      (float_of_int (t.sp_end.(i) - t.sp_start.(i)) /. 1e3)
      i t.sp_parent.(i) t.sp_op.(i)
  done;
  Printf.fprintf oc "\n],\"otherData\":{\"retained\":%d,\"dropped\":%d}}\n" t.n t.dropped;
  close_out oc
