module T = Sevsnp.Types
module C = Sevsnp.Cycles
module P = Sevsnp.Platform

type stats = { mutable appended : int; mutable dropped_full : int; mutable fetches : int }

type t = {
  mon : Monitor.t;
  region : Layout.region;
  c_appended : Obs.Metrics.counter;
  c_dropped : Obs.Metrics.counter;
  c_fetches : Obs.Metrics.counter;
  c_buffered : Obs.Metrics.counter;
  g_degraded : Obs.Metrics.gauge;
  pending : string Queue.t array;
      (** graceful degradation: lines that arrived while the region was
          full wait here (bounded) and are flushed by {!clear}.
          Sharded per-VCPU (Veil-Ring): a parked append touches only
          the appending VCPU's queue, so degraded-mode bookkeeping
          stays out of the shared critical section. *)
  mutable head : int;  (** next free byte offset within the region *)
  mutable nlines : int;
  mutable chain : bytes;
      (** replaced, never mutated, on each append: a caller holding a
          {!chain_digest} keeps the value it read *)
  line : Buffer.t;  (** scratch: the record rendered by [Audit.add_line] *)
  mutable frame : bytes;
      (** scratch: 4-byte length prefix, then the line — exactly the
          bytes one append writes to the region and hashes *)
  ctx : Veil_crypto.Sha256.ctx;  (** reused by every chain step *)
}

(* Bounded buffered-retry queue (per VCPU shard): past this the service
   sheds records (still explicitly — the caller sees the error
   response). *)
let pending_cap = 256

let nshards = 8

let shard_of t vcpu = t.pending.(vcpu.Sevsnp.Vcpu.id land (nshards - 1))

let stats t =
  {
    appended = Obs.Metrics.value t.c_appended;
    dropped_full = Obs.Metrics.value t.c_dropped;
    fetches = Obs.Metrics.value t.c_fetches;
  }
let capacity_bytes t = Layout.region_size t.region * T.page_size
let used_bytes t = t.head
let count t = t.nlines

let chain_digest t = t.chain

let verify_chain ~lines ~digest =
  let ctx = Veil_crypto.Sha256.init () in
  let step prev line =
    Veil_crypto.Sha256.chain_step ctx prev (Bytes.unsafe_of_string line) 0 (String.length line)
  in
  Bytes.equal (List.fold_left step (Bytes.make 32 '\000') lines) digest

let base_gpa t = T.gpa_of_gpfn t.region.Layout.lo

(* Make room for a [len]-byte line after the prefix; grows (and so
   allocates) only past the longest line seen so far. *)
let frame_for t len =
  if Bytes.length t.frame < len + 4 then
    t.frame <- Bytes.create (max (len + 4) (2 * Bytes.length t.frame))

(* The one framed append: [t.frame] holds the [len]-byte line after
   its prefix.  Writes the length prefix, copies the frame into the
   region, and extends the chain over the line bytes in place.  The
   caller has checked capacity and holds Dom_SEC write access to the
   region. *)
let write_frame t vcpu len =
  let platform = Monitor.platform t.mon in
  let f = t.frame in
  Bytes.set f 0 (Char.unsafe_chr (len land 0xff));
  Bytes.set f 1 (Char.unsafe_chr ((len lsr 8) land 0xff));
  Bytes.set f 2 (Char.unsafe_chr ((len lsr 16) land 0xff));
  Bytes.set f 3 (Char.unsafe_chr ((len lsr 24) land 0xff));
  Sevsnp.Vcpu.charge vcpu C.Copy (C.copy_cost (len + 4));
  Sevsnp.Vcpu.charge vcpu C.Monitor 350 (* bookkeeping *);
  P.write_sub platform vcpu (base_gpa t + t.head) f 0 (len + 4);
  Sevsnp.Vcpu.charge vcpu C.Crypto (C.hash_cost len);
  t.chain <- Veil_crypto.Sha256.chain_step t.ctx t.chain f 4 len;
  t.head <- t.head + len + 4;
  t.nlines <- t.nlines + 1;
  Obs.Metrics.incr t.c_appended

let append t vcpu (record : Guest_kernel.Audit.record) =
  Buffer.clear t.line;
  Guest_kernel.Audit.add_line t.line record;
  let len = Buffer.length t.line in
  frame_for t len;
  Buffer.blit t.line 0 t.frame 4 len;
  if t.head + len + 4 > capacity_bytes t then begin
    Obs.Metrics.incr t.c_dropped;
    (* Degraded, not dead: park the record in the bounded retry buffer
       (flushed on the next {!clear}), surface the state via the
       metrics registry, and answer with an explicit error. *)
    (let q = shard_of t vcpu in
     if Queue.length q < pending_cap then begin
       Queue.push (Buffer.contents t.line) q;
       Obs.Metrics.incr t.c_buffered;
       Obs.Metrics.set t.g_degraded 1
     end);
    Idcb.Resp_error "VeilS-LOG: reserved storage full; retrieve logs"
  end
  else begin
    let platform = Monitor.platform t.mon in
    Sevsnp.Vcpu.open_frame vcpu "slog_append";
    (* Length-prefixed append into the protected region (Dom_SEC rw). *)
    write_frame t vcpu len;
    (let tr = platform.P.tracer in
     if Obs.Trace.enabled tr then
       Obs.Trace.emit tr ~vcpu:vcpu.Sevsnp.Vcpu.id
         ~vmpl:(T.vmpl_index (Sevsnp.Vcpu.vmpl vcpu)) ~ts:(Sevsnp.Vcpu.rdtsc vcpu)
         ~bucket:"monitor" ~arg:(len + 4)
         ~id:(Sevsnp.Vcpu.causal_id vcpu) Obs.Trace.Audit_emit);
    Sevsnp.Vcpu.close_frame vcpu;
    Idcb.Resp_ok
  end

(* OS-assisted fetch into an OS buffer: the destination pointer came
   from the untrusted kernel and has already passed VeilMon's
   sanitizer; we additionally bound the copy. *)
let fetch_to_os t vcpu ~dest_gpa ~max =
  let platform = Monitor.platform t.mon in
  let n = min max t.head in
  let data = P.read platform vcpu (base_gpa t) n in
  Sevsnp.Vcpu.charge vcpu C.Copy (C.copy_cost n);
  P.write platform vcpu dest_gpa data;
  Obs.Metrics.incr t.c_fetches;
  Idcb.Resp_count n

let read_all t =
  let platform = Monitor.platform t.mon in
  let vcpu = Monitor.boot_vcpu t.mon in
  (* Trusted-side read: hop into Dom_SEC when called from below. *)
  let here = Privdom.of_vmpl (Sevsnp.Vcpu.vmpl vcpu) in
  let need_switch = not (Privdom.more_privileged here Privdom.Enc || Privdom.equal here Privdom.Sec) in
  if need_switch then Monitor.domain_switch t.mon vcpu ~target:Privdom.Sec;
  let rec go off acc =
    if off >= t.head then List.rev acc
    else begin
      let len = Int32.to_int (Bytes.get_int32_le (P.read platform vcpu (base_gpa t + off) 4) 0) in
      let line = Bytes.to_string (P.read platform vcpu (base_gpa t + off + 4) len) in
      go (off + 4 + len) (line :: acc)
    end
  in
  let lines = go 0 [] in
  if need_switch then Monitor.domain_switch t.mon vcpu ~target:here;
  lines

let degraded t = Obs.Metrics.gauge_value t.g_degraded <> 0
let pending_count t = Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.pending

(* Buffered retry: drain the degraded-mode shards into the (just
   retrieved and cleared) region, oldest first within each shard,
   shard 0 (the boot VCPU's) first. *)
let flush_pending t =
  if pending_count t > 0 then begin
    let vcpu = Monitor.boot_vcpu t.mon in
    let here = Privdom.of_vmpl (Sevsnp.Vcpu.vmpl vcpu) in
    let need_switch =
      not (Privdom.more_privileged here Privdom.Enc || Privdom.equal here Privdom.Sec)
    in
    if need_switch then Monitor.domain_switch t.mon vcpu ~target:Privdom.Sec;
    Array.iter
      (fun q ->
        while
          (not (Queue.is_empty q)) && t.head + String.length (Queue.peek q) + 4 <= capacity_bytes t
        do
          let line = Queue.pop q in
          let len = String.length line in
          frame_for t len;
          Bytes.blit_string line 0 t.frame 4 len;
          write_frame t vcpu len
        done)
      t.pending;
    if need_switch then Monitor.domain_switch t.mon vcpu ~target:here
  end;
  if pending_count t = 0 then Obs.Metrics.set t.g_degraded 0

let clear t =
  t.head <- 0;
  t.nlines <- 0;
  t.chain <- Bytes.make 32 '\000';
  flush_pending t

let handler t _mon vcpu (req : Idcb.request) =
  match req with
  | Idcb.R_log_append record -> Some (append t vcpu record)
  | Idcb.R_log_fetch { dest_gpa; max } -> Some (fetch_to_os t vcpu ~dest_gpa ~max)
  | _ -> None

let install mon =
  let m = (Monitor.platform mon).P.metrics in
  let t =
    {
      mon;
      region = (Monitor.layout mon).Layout.log_region;
      c_appended = Obs.Metrics.counter m "slog.appended";
      c_dropped = Obs.Metrics.counter m "slog.dropped_full";
      c_fetches = Obs.Metrics.counter m "slog.fetches";
      c_buffered = Obs.Metrics.counter m "slog.buffered_retries";
      g_degraded = Obs.Metrics.gauge m "slog.degraded";
      pending = Array.init nshards (fun _ -> Queue.create ());
      head = 0;
      nlines = 0;
      chain = Bytes.make 32 '\000';
      line = Buffer.create 256;
      frame = Bytes.create 260;
      ctx = Veil_crypto.Sha256.init ();
    }
  in
  Monitor.register_service mon ~name:"veils-log" ~target:Privdom.Sec (fun m vcpu req ->
      handler t m vcpu req);
  t
