module P = Sevsnp.Platform
module T = Sevsnp.Types
module C = Sevsnp.Cycles
module V = Sevsnp.Vcpu

type stats = {
  mutable os_calls : int;
  mutable delegated_pvalidates : int;
  mutable delegated_vcpu_boots : int;
  mutable sanitizer_rejections : int;
}

type service = { svc_name : string; svc_target : Privdom.t; svc_handler : handler }

and handler = t -> Sevsnp.Vcpu.t -> Idcb.request -> Idcb.response option

(* Per-VCPU shard of VeilMon's hot per-call state (Veil-Ring).  The
   replay caches used to live in one Hashtbl guarded by the whole
   serialized entry; one record per VCPU keeps lookups to an array
   load, shrinks the shared critical section to true RMP mutations,
   and gives batched flushes their own (batch_seq, slot) replay
   granularity alongside the per-IDCB sequence scheme. *)
and shard = {
  mutable sh_seq : int;  (* last served IDCB sequence; -1 = none *)
  mutable sh_resp : Idcb.response;
  mutable sh_batch_seq : int;  (* last served ring batch sequence; -1 = none *)
  mutable sh_batch_n : int;  (* its slot count (for replay accounting) *)
}

and t = {
  hv : Hypervisor.Hv.t;
  platform : P.t;
  layout : Layout.t;
  boot_vcpu : V.t;
  rng : Veil_crypto.Rng.t;
  dh : Veil_crypto.Dh.keypair;
  stats : stats;
  mutable protected : (T.gpfn * T.gpfn * Privdom.t) list;  (** [lo, hi) ranges *)
  mutable protected_single : (T.gpfn, Privdom.t) Hashtbl.t;
  mutable services : service list;
  mutable replicas : (int * Privdom.t, Sevsnp.Vmsa.t) Hashtbl.t;
  idcbs : (int, Idcb.t) Hashtbl.t;
  mutable mon_ghcb_gpa : T.gpa;
  mutable mon_heap_cursor : T.gpfn;
  mutable svc_cursor : T.gpfn;
  mutable svc_free : T.gpfn list;
  mutable vmsa_cursor : T.gpfn;
  mutable kernel_entry : int;
  mutable initialized : bool;
  mutable replay_guard : bool;
      (* normally [true]; Veil-Explore's weakened-guard demonstration
         turns the IDCB/ring replay caches off (test-only) to prove the
         explorer detects the double execution the guard prevents *)
  shards : shard array;  (* indexed by vcpu_id: replayed-relay suppression *)
  rings : Ring.t option array;
      (* indexed by vcpu_id: the registered Veil-Ring submission ring,
         placement-checked at {!register_ring} *)
  c_os_calls : Obs.Metrics.counter;
  c_ring_flushes : Obs.Metrics.counter;
  c_ring_slots : Obs.Metrics.counter;
  c_ring_slot_rejected : Obs.Metrics.counter;
  c_sanitizer_rejections : Obs.Metrics.counter;
  c_insn_retries : Obs.Metrics.counter;
  c_switch_retries : Obs.Metrics.counter;
  c_ghcb_sanitized : Obs.Metrics.counter;
  c_replays : Obs.Metrics.counter;
  (* Serialized-monitor entry ledger (Veil-Scope).  The monitor is one
     hardware-serialized resource: on real silicon, two VCPUs' os_calls
     cannot be served concurrently.  The simulator interleaves VCPUs
     deterministically, so overlap never *executes* — but it is still
     measurable: model the monitor as a single-server queue on the
     machine clock (the furthest-ahead VCPU's window-relative rdtsc).
     Each os_call arrives at that clock and holds the server for the
     Monitor+Switch cycles it charges; an arrival before the previous
     service's end is queued for the difference.  At 1 VCPU the
     machine clock is the caller's own, which already paid the prior
     service, so queueing is identically zero and single-VCPU numbers
     are untouched; at N VCPUs the clocks advance in parallel and the
     overlap *is* the serialized slice.  Plain int bookkeeping: no
     allocation, no cycle charges. *)
  mutable mon_busy_until : int;  (* monitor-timeline end of the service in progress *)
  ledger_clock_base : int array;
      (* per-VCPU rdtsc at the last {!reset_wait_ledger}: arrivals are
         window-relative, so the boot VCPU's ~tens-of-millions head
         start (it paid for boot) does not read as every AP queueing
         behind it *)
  mutable mon_entries : int;
  mutable mon_busy_cycles : int;  (* summed service (Monitor+Switch) cycles *)
  mutable mon_queued_cycles : int;  (* summed queueing delay *)
  tag_entries : int array;  (* per Idcb.request_tag *)
  tag_busy : int array;
  tag_queued : int array;
  c_mon_busy_cycles : Obs.Metrics.counter;
  c_mon_queued_cycles : Obs.Metrics.counter;
}

let platform t = t.platform
let hv t = t.hv
let layout t = t.layout
let stats t = t.stats
let boot_vcpu t = t.boot_vcpu
let monitor_ghcb_gpa t = t.mon_ghcb_gpa

let create ~hv ~layout ~boot_vcpu =
  if not (T.equal_vmpl (V.vmpl boot_vcpu) T.Vmpl0) then
    failwith "VeilMon must boot on the hypervisor-created VMPL-0 instance";
  let platform = Hypervisor.Hv.platform hv in
  let rng = Veil_crypto.Rng.split platform.P.rng in
  {
    hv;
    platform;
    layout;
    boot_vcpu;
    rng;
    dh = Veil_crypto.Dh.keygen rng;
    stats = { os_calls = 0; delegated_pvalidates = 0; delegated_vcpu_boots = 0; sanitizer_rejections = 0 };
    protected = [];
    protected_single = Hashtbl.create 64;
    services = [];
    replicas = Hashtbl.create 16;
    idcbs = Hashtbl.create 8;
    mon_ghcb_gpa = 0;
    mon_heap_cursor = layout.Layout.mon_heap.Layout.lo;
    svc_cursor = layout.Layout.svc_region.Layout.lo;
    svc_free = [];
    vmsa_cursor = layout.Layout.vmsa_region.Layout.lo;
    kernel_entry = 0;
    initialized = false;
    replay_guard = true;
    shards =
      Array.init 64 (fun _ ->
          { sh_seq = -1; sh_resp = Idcb.Resp_none; sh_batch_seq = -1; sh_batch_n = 0 });
    rings = Array.make 64 None;
    c_os_calls = Obs.Metrics.counter platform.P.metrics "monitor.os_calls";
    c_ring_flushes = Obs.Metrics.counter platform.P.metrics "monitor.ring_flushes";
    c_ring_slots = Obs.Metrics.counter platform.P.metrics "monitor.ring_slots";
    c_ring_slot_rejected = Obs.Metrics.counter platform.P.metrics "monitor.ring_slot_rejected";
    c_sanitizer_rejections = Obs.Metrics.counter platform.P.metrics "monitor.sanitizer_rejections";
    c_insn_retries = Obs.Metrics.counter platform.P.metrics "monitor.insn_retries";
    c_switch_retries = Obs.Metrics.counter platform.P.metrics "monitor.switch_retries";
    c_ghcb_sanitized = Obs.Metrics.counter platform.P.metrics "monitor.ghcb_sanitized";
    c_replays = Obs.Metrics.counter platform.P.metrics "monitor.replays_suppressed";
    mon_busy_until = 0;
    ledger_clock_base = Array.make 64 0;
    mon_entries = 0;
    mon_busy_cycles = 0;
    mon_queued_cycles = 0;
    tag_entries = Array.make Idcb.ntags 0;
    tag_busy = Array.make Idcb.ntags 0;
    tag_queued = Array.make Idcb.ntags 0;
    c_mon_busy_cycles = Obs.Metrics.counter platform.P.metrics "monitor.wait.busy_cycles";
    c_mon_queued_cycles = Obs.Metrics.counter platform.P.metrics "monitor.wait.queued_cycles";
  }

(* --- protected-region registry --- *)

let add_protected_range t ~owner lo hi = t.protected <- (lo, hi, owner) :: t.protected

let add_protected_frames t ~owner frames =
  List.iter (fun f -> Hashtbl.replace t.protected_single f owner) frames

let remove_protected_frames t frames = List.iter (Hashtbl.remove t.protected_single) frames

let rec in_ranges gpfn = function
  | [] -> false
  | (lo, hi, _) :: rest -> (gpfn >= lo && gpfn < hi) || in_ranges gpfn rest

let frame_is_protected t gpfn = Hashtbl.mem t.protected_single gpfn || in_ranges gpfn t.protected

let gpa_is_protected t gpa = frame_is_protected t (T.gpfn_of_gpa gpa)

(* --- allocation --- *)

let alloc_mon_frame t =
  let f = t.mon_heap_cursor in
  if f >= t.layout.Layout.mon_heap.Layout.hi then failwith "VeilMon heap exhausted";
  t.mon_heap_cursor <- f + 1;
  f

let alloc_svc_frame t =
  match t.svc_free with
  | f :: rest ->
      t.svc_free <- rest;
      Sevsnp.Phys_mem.zero_page t.platform.P.mem f;
      f
  | [] ->
      let f = t.svc_cursor in
      if f >= t.layout.Layout.svc_region.Layout.hi then failwith "Dom_SEC heap exhausted";
      t.svc_cursor <- f + 1;
      f

let free_svc_frame t f = t.svc_free <- f :: t.svc_free

let alloc_vmsa_frame t =
  let f = t.vmsa_cursor in
  if f >= t.layout.Layout.vmsa_region.Layout.hi - 1 then failwith "VMSA region exhausted";
  t.vmsa_cursor <- f + 1;
  f

(* --- replicas (§5.2) --- *)

let vmsa_of t ~vcpu_id ~dom =
  match Hashtbl.find_opt t.replicas (vcpu_id, dom) with
  | Some v -> v
  | None -> failwith (Printf.sprintf "no %s instance for vcpu %d" (Privdom.to_string dom) vcpu_id)

let idcb_of t ~vcpu_id =
  match Hashtbl.find t.idcbs vcpu_id with
  | i -> i
  | exception Not_found -> failwith (Printf.sprintf "no IDCB for vcpu %d" vcpu_id)

let mon_ghcb t =
  match P.ghcb_at t.platform (T.gpfn_of_gpa t.mon_ghcb_gpa) with
  | Some g -> g
  | None -> failwith "monitor GHCB not initialized"

(* --- hardened hypervisor protocols (Veil-Chaos) ---

   The hypervisor is untrusted *and* unreliable: RMPADJUST/PVALIDATE
   may transiently fail (architectural FAIL_INUSE, e.g. an in-flight
   host-side operation on the frame), GHCB responses may be garbled or
   refused, relayed switches may simply not happen.  Every protocol
   below retries a bounded number of times with an exponentially
   growing, cycle-accounted backoff, then fails *explicitly* — the CVM
   never consumes an out-of-protocol value and never hangs.  The
   non-faulting path charges nothing extra (one comparison per op), so
   calibrated benchmark numbers are unchanged. *)

let max_retries = 6

let backoff_cycles attempt = 500 * (1 lsl min attempt 6)

let transient_suffix = "(transient)"

let is_transient e =
  let n = String.length transient_suffix and l = String.length e in
  l >= n && String.sub e (l - n) n = transient_suffix

let retry_insn t vcpu what f =
  let rec go attempt =
    match f () with
    | Ok _ as r -> r
    | Error e when is_transient e ->
        if attempt >= max_retries then
          Error (Printf.sprintf "%s: transient hypervisor failure persisted for %d attempts: %s" what (max_retries + 1) e)
        else begin
          Obs.Metrics.incr t.c_insn_retries;
          V.charge vcpu C.Monitor (backoff_cycles attempt);
          go (attempt + 1)
        end
    | Error _ as r -> r
  in
  go 0

(* GHCB response sanitization: the only in-protocol hypercall answers
   are 0 (ok) and 1 (refused).  Anything else — corruption, a chaos
   "declined to service" marker — is discarded and the hypercall is
   re-issued (all monitor hypercalls are idempotent); a hypervisor
   that keeps answering garbage gets an explicit halt, not trust. *)
let hypercall t vcpu req =
  let g = mon_ghcb t in
  let rec go attempt =
    g.Sevsnp.Ghcb.request <- req;
    P.vmgexit t.platform vcpu ~ghcb:true;
    let resp = g.Sevsnp.Ghcb.response in
    if resp = 0 || resp = 1 then resp
    else if attempt >= max_retries then
      P.halt t.platform
        (Printf.sprintf "GHCB sanitizer: out-of-protocol hypercall response %#x persisted for %d attempts" resp (max_retries + 1))
    else begin
      Obs.Metrics.incr t.c_ghcb_sanitized;
      V.charge vcpu C.Monitor (backoff_cycles attempt);
      go (attempt + 1)
    end
  in
  go 0

let create_replica t vcpu ~vcpu_id ~(dom : Privdom.t) ~rip =
  let frame = alloc_vmsa_frame t in
  V.charge vcpu C.Monitor 2000 (* VMSA preparation: stack, GDT/IDT, page tables (§5.2) *);
  (match
     retry_insn t vcpu "replica VMSA rmpadjust" (fun () ->
         P.rmpadjust t.platform vcpu ~leg:C.Rmpadjust_monitor ~gpfn:frame ~target:(Privdom.vmpl dom)
           ~perms:Sevsnp.Perm.none ~vmsa:true)
   with
  | Ok () -> ()
  | Error e -> P.halt t.platform ("replica VMSA rmpadjust: " ^ e));
  let vmsa = Sevsnp.Vmsa.create ~vcpu_id ~vmpl:(Privdom.vmpl dom) ~backing_gpfn:frame in
  vmsa.Sevsnp.Vmsa.cpl <- Privdom.cpl dom;
  vmsa.Sevsnp.Vmsa.rip <- rip;
  (match dom with
  | Privdom.Sec | Privdom.Mon -> vmsa.Sevsnp.Vmsa.ghcb_gpa <- t.mon_ghcb_gpa
  | Privdom.Enc | Privdom.Unt -> ());
  (match P.install_vmsa t.platform vmsa with Ok () -> () | Error e -> failwith e);
  Hashtbl.replace t.replicas (vcpu_id, dom) vmsa;
  (* Ask the hypervisor to register (and, for fresh VCPUs, launch) it. *)
  (match
     hypercall t vcpu
       (Sevsnp.Ghcb.Req_create_vcpu { vmsa_gpfn = frame; target_vmpl = Privdom.vmpl dom })
   with
  | 0 -> ()
  | _ -> P.halt t.platform "hypervisor refused to register a replica VCPU instance");
  vmsa

let create_all_replicas t vcpu ~vcpu_id =
  (* Dom_UNT first: a fresh VCPU is entered on its first registered
     instance, and §5.3 boots hotplugged VCPUs at VMPL-3. *)
  List.iter
    (fun dom ->
      let rip = match dom with Privdom.Unt -> t.kernel_entry | _ -> 0 in
      ignore (create_replica t vcpu ~vcpu_id ~dom ~rip))
    [ Privdom.Unt; Privdom.Sec; Privdom.Enc ]

(* --- initialization (§5.1, experiment E1) --- *)

let grant_region t vcpu (r : Layout.region) ~target ~perms =
  for gpfn = r.Layout.lo to r.Layout.hi - 1 do
    match
      retry_insn t vcpu "boot sweep" (fun () ->
          P.rmpadjust t.platform vcpu ~leg:C.Rmpadjust_monitor ~gpfn ~target ~perms ~vmsa:false)
    with
    | Ok () -> ()
    | Error e -> P.halt t.platform ("boot sweep: " ^ e)
  done

(* PVALIDATE with the same bounded-retry treatment; used by the boot
   sweeps and delegation. *)
let mon_pvalidate t vcpu ~gpfn ~to_private =
  retry_insn t vcpu "pvalidate" (fun () ->
      P.pvalidate t.platform vcpu ~leg:C.Pvalidate_monitor ~gpfn ~to_private)

let initialize t ~kernel_entry =
  if t.initialized then failwith "VeilMon already initialized";
  t.kernel_entry <- kernel_entry;
  let vcpu = t.boot_vcpu in
  let l = t.layout in
  (* 1. Validate all guest memory (done by the kernel in a native CVM,
        by VeilMon under Veil — same cost, cancels in the E1 delta). *)
  for gpfn = 0 to l.Layout.total_frames - 1 do
    if not (Sevsnp.Rmp.is_vmsa t.platform.P.rmp gpfn) then
      match mon_pvalidate t vcpu ~gpfn ~to_private:true with
      | Ok () -> ()
      | Error e -> P.halt t.platform ("boot validate: " ^ e)
  done;
  (* 2. Protection sweep: grant the OS its memory, give Dom_SEC read
        access for service scans, keep Dom_MON/Dom_SEC regions dark. *)
  let os_all = Sevsnp.Perm.all in
  let rw = Sevsnp.Perm.rw in
  List.iter
    (fun r ->
      grant_region t vcpu r ~target:T.Vmpl3 ~perms:os_all;
      (* Dom_SEC gets read/write (no execute) over OS memory: services
         scan page tables, install module text, re-encrypt enclave
         pages — all in OS-owned frames. *)
      grant_region t vcpu r ~target:T.Vmpl1 ~perms:rw)
    [ l.Layout.kernel_text; l.Layout.kernel_data; l.Layout.kernel_free; l.Layout.idcb_region ];
  grant_region t vcpu l.Layout.svc_region ~target:T.Vmpl1 ~perms:rw;
  grant_region t vcpu l.Layout.log_region ~target:T.Vmpl1 ~perms:rw;
  (* 3. Protected-region registry for request sanitization (§8.1). *)
  add_protected_range t ~owner:Privdom.Mon l.Layout.mon_image.Layout.lo l.Layout.mon_image.Layout.hi;
  add_protected_range t ~owner:Privdom.Mon l.Layout.mon_heap.Layout.lo l.Layout.mon_heap.Layout.hi;
  add_protected_range t ~owner:Privdom.Mon l.Layout.vmsa_region.Layout.lo l.Layout.vmsa_region.Layout.hi;
  add_protected_range t ~owner:Privdom.Sec l.Layout.svc_region.Layout.lo l.Layout.svc_region.Layout.hi;
  add_protected_range t ~owner:Privdom.Sec l.Layout.log_region.Layout.lo l.Layout.log_region.Layout.hi;
  (* 4. Monitor GHCB (shared page) for hypercalls. *)
  let ghcb_frame = alloc_mon_frame t in
  (match mon_pvalidate t vcpu ~gpfn:ghcb_frame ~to_private:false with
  | Ok () -> ()
  | Error e -> P.halt t.platform ("monitor ghcb share: " ^ e));
  t.mon_ghcb_gpa <- T.gpa_of_gpfn ghcb_frame;
  (match P.set_ghcb t.platform vcpu t.mon_ghcb_gpa with Ok () -> () | Error e -> failwith e);
  (* 5. Per-VCPU IDCB (in OS-accessible memory, §5.2). *)
  Hashtbl.replace t.idcbs vcpu.V.id (Idcb.create ~gpfn:l.Layout.idcb_region.Layout.lo ~vcpu_id:vcpu.V.id);
  (* 6. Replicate the boot VCPU across domains (§5.2).  The VMPL-0
        launch instance is the Dom_MON replica. *)
  Hashtbl.replace t.replicas (vcpu.V.id, Privdom.Mon) (V.current_vmsa vcpu);
  create_all_replicas t vcpu ~vcpu_id:vcpu.V.id;
  (* 6b. Pre-provision the kernel's GHCB: the Dom_UNT kernel cannot
     create one itself (PVALIDATE is delegated, and delegation needs a
     GHCB — VeilMon breaks the cycle at boot). *)
  let kernel_ghcb_frame = l.Layout.idcb_region.Layout.hi - 1 in
  (match mon_pvalidate t vcpu ~gpfn:kernel_ghcb_frame ~to_private:false with
  | Ok () -> ()
  | Error e -> P.halt t.platform ("kernel ghcb share: " ^ e));
  (match P.register_ghcb t.platform (T.gpa_of_gpfn kernel_ghcb_frame) with
  | Ok _ -> ()
  | Error e -> failwith ("kernel ghcb: " ^ e));
  (vmsa_of t ~vcpu_id:vcpu.V.id ~dom:Privdom.Unt).Sevsnp.Vmsa.ghcb_gpa <-
    T.gpa_of_gpfn kernel_ghcb_frame;
  (* 7. Interrupt relay policy: deliver external interrupts to the OS. *)
  (match hypercall t vcpu (Sevsnp.Ghcb.Req_relay_interrupts_to T.Vmpl3) with
  | 0 -> ()
  | _ -> P.halt t.platform "hypervisor refused the interrupt relay policy");
  Hypervisor.Hv.kernel_handler_frame t.hv l.Layout.kernel_text.Layout.lo;
  (* 8. Charge the launch-measurement hashing of the boot image. *)
  let image_bytes = Layout.region_size l.Layout.mon_image + Layout.region_size l.Layout.kernel_text in
  V.charge t.boot_vcpu C.Crypto (C.hash_cost (image_bytes * T.page_size));
  t.initialized <- true

(* --- domain switches --- *)

(* The relay is a *request* to an untrusted hypervisor: verify the
   switch actually landed in the target instance before executing a
   single further instruction that assumes it.  A refused relay is
   retried with backoff; a hypervisor that keeps refusing earns an
   explicit halt (never a silent wrong-domain execution or a spin).
   The posted request is a preallocated constant, so a switch that
   lands first time allocates nothing. *)
let rec relay_switch t vcpu (ghcb : Sevsnp.Ghcb.t) target_vmpl n =
  ghcb.Sevsnp.Ghcb.request <- Sevsnp.Ghcb.domain_switch_request target_vmpl;
  P.vmgexit t.platform vcpu ~ghcb:true;
  if not (T.equal_vmpl (V.vmpl vcpu) target_vmpl) then begin
    if n >= max_retries then
      P.halt t.platform
        (Printf.sprintf "domain switch refused by hypervisor for %d attempts" (max_retries + 1))
    else begin
      Obs.Metrics.incr t.c_switch_retries;
      V.charge vcpu C.Switch (backoff_cycles n);
      relay_switch t vcpu ghcb target_vmpl (n + 1)
    end
  end

let domain_switch t vcpu ~target =
  let ghcb =
    match P.current_ghcb t.platform vcpu with
    | g -> g
    | exception Not_found -> P.halt t.platform "domain switch without a GHCB"
  in
  (* One frame per relayed switch: its children are the exit legs, the
     host relay, and the entry legs — the paper's six-leg breakdown. *)
  V.open_frame vcpu "domain_switch";
  relay_switch t vcpu ghcb (Privdom.vmpl target) 0;
  V.close_frame vcpu

(* --- sanitization (§8.1) --- *)

let sanitize t vcpu (req : Idcb.request) : (unit, string) result =
  V.charge vcpu C.Monitor 250;
  match req with
  | Idcb.R_pvalidate { gpfn; _ } ->
      if frame_is_protected t gpfn then Error "pvalidate target is a protected frame" else Ok ()
  | Idcb.R_log_fetch { dest_gpa; _ } ->
      if gpa_is_protected t dest_gpa then Error "log fetch destination points into protected memory"
      else Ok ()
  | Idcb.R_enclave_finalize d ->
      V.charge vcpu C.Monitor (20 * Guest_kernel.Enclave_desc.npages d);
      if List.exists (frame_is_protected t) (Guest_kernel.Enclave_desc.frames d) then
        Error "enclave descriptor references protected frames"
      else if frame_is_protected t d.Guest_kernel.Enclave_desc.ghcb_gpfn then
        Error "enclave GHCB frame is protected"
      else Ok ()
  | Idcb.R_enclave_restore { gpfn; _ } ->
      if frame_is_protected t gpfn then Error "restore source is a protected frame" else Ok ()
  | _ -> Ok ()

(* --- built-in delegation handlers (§5.3) --- *)

let handle_delegation t vcpu (req : Idcb.request) : Idcb.response option =
  match req with
  | Idcb.R_pvalidate { gpfn; to_private } -> (
      t.stats.delegated_pvalidates <- t.stats.delegated_pvalidates + 1;
      match mon_pvalidate t vcpu ~gpfn ~to_private with
      | Ok () -> Some Idcb.Resp_ok
      | Error e -> Some (Idcb.Resp_error e))
  | Idcb.R_vcpu_boot { vcpu_id } ->
      t.stats.delegated_vcpu_boots <- t.stats.delegated_vcpu_boots + 1;
      (* §5 AP bring-up, hardened: the id is OS-provided data.  It must
         fit the per-VCPU IDCB + kernel-GHCB slots carved out of
         [idcb_region] (8 of each) and name the next hardware VCPU —
         both checked *before* anything is hot-plugged. *)
      let max_vcpus = Layout.region_size t.layout.Layout.idcb_region / 2 in
      if vcpu_id < 1 || vcpu_id >= max_vcpus then Some (Idcb.Resp_error "vcpu id out of range")
      else if vcpu_id <> P.vcpu_count t.platform then Some (Idcb.Resp_error "unexpected vcpu id")
      else begin
        let fresh = P.add_vcpu t.platform in
        assert (fresh.V.id = vcpu_id);
        Hashtbl.replace t.idcbs vcpu_id
          (Idcb.create ~gpfn:(t.layout.Layout.idcb_region.Layout.lo + vcpu_id) ~vcpu_id);
        (* Dom_UNT replica first: the hypervisor enters the fresh VCPU
           on it (APs boot at VMPL-3, §5.3), then the other domains. *)
        create_all_replicas t vcpu ~vcpu_id;
        ignore (create_replica t vcpu ~vcpu_id ~dom:Privdom.Mon ~rip:0);
        (* Per-AP kernel GHCB, provisioned exactly like the boot
           VCPU's: the Dom_UNT kernel cannot PVALIDATE one itself. *)
        let ghcb_frame = t.layout.Layout.idcb_region.Layout.hi - 1 - vcpu_id in
        (match mon_pvalidate t vcpu ~gpfn:ghcb_frame ~to_private:false with
        | Ok () -> ()
        | Error e -> P.halt t.platform ("ap kernel ghcb share: " ^ e));
        (match P.register_ghcb t.platform (T.gpa_of_gpfn ghcb_frame) with
        | Ok _ -> ()
        | Error e -> failwith ("ap kernel ghcb: " ^ e));
        (vmsa_of t ~vcpu_id ~dom:Privdom.Unt).Sevsnp.Vmsa.ghcb_gpa <- T.gpa_of_gpfn ghcb_frame;
        Some Idcb.Resp_ok
      end
  | _ -> None

(* --- services --- *)

let register_service t ~name ~target handler =
  t.services <- t.services @ [ { svc_name = name; svc_target = target; svc_handler = handler } ]

let classify_target (req : Idcb.request) : Privdom.t =
  match req with
  | Idcb.R_pvalidate _ | Idcb.R_vcpu_boot _ -> Privdom.Mon
  | _ -> Privdom.Sec

let rec try_services t vcpu req = function
  | [] -> Idcb.Resp_error "no service owns this request"
  | s :: rest -> (
      match s.svc_handler t vcpu req with Some r -> r | None -> try_services t vcpu req rest)

let dispatch t vcpu req =
  match handle_delegation t vcpu req with Some r -> r | None -> try_services t vcpu req t.services

(* Trusted-domain service of whatever request the IDCB currently
   carries.  Runs the sanitizer and dispatch at most once per IDCB
   sequence number: a duplicated or replayed hypervisor relay of an
   already-served request gets the cached response back instead of a
   second (possibly state-mutating) execution.  The replay cache is the
   caller's own per-VCPU shard — an array load, no shared structure. *)
let serve_pending t vcpu =
  let idcb = idcb_of t ~vcpu_id:vcpu.V.id in
  let seq = idcb.Idcb.seq in
  let sh = t.shards.(vcpu.V.id) in
  if t.replay_guard && sh.sh_seq = seq then begin
    Obs.Metrics.incr t.c_replays;
    sh.sh_resp
  end
  else begin
    let resp =
      match sanitize t vcpu idcb.Idcb.request with
      | Error e ->
          t.stats.sanitizer_rejections <- t.stats.sanitizer_rejections + 1;
          Obs.Metrics.incr t.c_sanitizer_rejections;
          Idcb.Resp_error e
      | Ok () -> dispatch t vcpu idcb.Idcb.request
    in
    sh.sh_seq <- seq;
    sh.sh_resp <- resp;
    resp
  end

(* One os_call through the single-server queue model: [arrival] is the
   caller's clock at entry, [service] the Monitor+Switch cycles the
   call charged (read from the caller's bucket counters, so the ledger
   shares E-scale's mon-share definition exactly).  Returns the
   queueing delay so the caller can emit it as a wait edge. *)
(* Global "machine time" proxy for arrivals: the furthest-ahead VCPU's
   window-relative clock.  A VCPU with nothing runnable charges no
   cycles, so its own clock lags real time; on hardware the wall clock
   keeps advancing for everyone, and the leading VCPU is the closest
   zero-allocation approximation the monitor can read.  Arrivals are
   therefore monotone across calls, and only calls landing inside a
   previous call's service window register as queued. *)
let rec max_clock bases vcpus acc =
  match vcpus with
  | [] -> acc
  | v :: rest ->
      let base = if v.V.id < Array.length bases then bases.(v.V.id) else 0 in
      let c = V.rdtsc v - base in
      max_clock bases rest (if c > acc then c else acc)

(* Entry into the ledger is three ints read separately — arrival on
   the machine clock, queueing behind the service in progress, and the
   caller's Monitor+Switch cycles so far — so the os_call path builds
   no tuple. *)
let ledger_arrival t = max_clock t.ledger_clock_base t.platform.P.vcpus_rev 0

let ledger_queued t ~arrival = if t.mon_busy_until > arrival then t.mon_busy_until - arrival else 0

let monitor_cycles vcpu = C.read_bucket vcpu.V.counter C.Monitor + C.read_bucket vcpu.V.counter C.Switch

let ledger_exit t vcpu ~tag ~arrival ~queued ~mon0 =
  let service = monitor_cycles vcpu - mon0 in
  t.mon_busy_until <- arrival + queued + service;
  t.mon_entries <- t.mon_entries + 1;
  t.mon_busy_cycles <- t.mon_busy_cycles + service;
  t.mon_queued_cycles <- t.mon_queued_cycles + queued;
  t.tag_entries.(tag) <- t.tag_entries.(tag) + 1;
  t.tag_busy.(tag) <- t.tag_busy.(tag) + service;
  t.tag_queued.(tag) <- t.tag_queued.(tag) + queued;
  Obs.Metrics.add t.c_mon_busy_cycles service;
  Obs.Metrics.add t.c_mon_queued_cycles queued

let os_call t vcpu (req : Idcb.request) : Idcb.response =
  t.stats.os_calls <- t.stats.os_calls + 1;
  Obs.Metrics.incr t.c_os_calls;
  let arrival = ledger_arrival t in
  let queued = ledger_queued t ~arrival and mon0 = monitor_cycles vcpu in
  (* An IDCB request is a request origin: mint a causal id if this VCPU
     is not already carrying one (e.g. an os_call issued from inside a
     traced syscall keeps the syscall's id). *)
  let prof = t.platform.P.profiler in
  let minted = Obs.Profiler.enabled prof && V.causal_id vcpu = 0 in
  if minted then Obs.Profiler.set_id prof ~vcpu:vcpu.V.id (Obs.Profiler.mint prof);
  V.open_frame vcpu "os_call";
  let tr = t.platform.P.tracer in
  if Obs.Trace.enabled tr then begin
    Obs.Trace.span_begin tr ~bucket:"monitor" ~id:(V.causal_id vcpu)
      ~vcpu:vcpu.V.id ~vmpl:(T.vmpl_index (V.vmpl vcpu)) ~ts:(V.rdtsc vcpu) "os_call";
    (* The measured serialized slice: another VCPU's call is in service
       until [arrival + queued] on the monitor timeline.  The span is
       stamped on the caller's own clock (queueing is virtual — the
       caller's clock does not advance while parked). *)
    if queued > 0 then
      Obs.Trace.complete tr ~bucket:"monitor" ~id:(V.causal_id vcpu)
        ~vcpu:vcpu.V.id ~vmpl:(T.vmpl_index (V.vmpl vcpu)) ~ts:(V.rdtsc vcpu) ~dur:queued
        (Obs.Trace.Wait Obs.Trace.Monitor_serial)
  end;
  let idcb = idcb_of t ~vcpu_id:vcpu.V.id in
  (* OS writes the request into the IDCB, stamped with the next
     sequence number — the monitor serves each sequence at most once. *)
  V.charge vcpu C.Copy (C.copy_cost (Idcb.request_size req));
  idcb.Idcb.seq <- idcb.Idcb.seq + 1;
  idcb.Idcb.request <- req;
  let target = classify_target req in
  domain_switch t vcpu ~target;
  (* Now running in the trusted domain: dedup, sanitize, then serve. *)
  let resp = serve_pending t vcpu in
  idcb.Idcb.response <- resp;
  idcb.Idcb.request <- Idcb.R_none;
  V.charge vcpu C.Copy (C.copy_cost (Idcb.response_size resp));
  domain_switch t vcpu ~target:Privdom.Unt;
  if Obs.Trace.enabled tr then
    Obs.Trace.span_end tr ~vcpu:vcpu.V.id ~vmpl:(T.vmpl_index (V.vmpl vcpu))
      ~ts:(V.rdtsc vcpu) "os_call";
  V.close_frame vcpu;
  if minted then Obs.Profiler.set_id prof ~vcpu:vcpu.V.id 0;
  ledger_exit t vcpu ~tag:(Idcb.request_tag req) ~arrival ~queued ~mon0;
  resp

(* --- Veil-Ring: batched submission rings --- *)

(* Same placement rule as the IDCBs (§5.2): the ring must live in the
   less-privileged party's memory.  Checked twice, independently: the
   monitor's own protected-region registry (the ring may not alias
   VeilMon/Dom_SEC state) and the RMP (the frame must be plain private
   guest memory the OS can read and write — not a VMSA, not
   host-shared). *)
let register_ring t ring =
  let gpfn = Ring.gpfn ring in
  let vcpu_id = Ring.vcpu_id ring in
  if vcpu_id < 0 || vcpu_id >= Array.length t.rings then Error "ring vcpu id out of range"
  else if frame_is_protected t gpfn then Error "ring frame aliases protected memory"
  else if not (Sevsnp.Rmp.guest_can_rw t.platform.P.rmp gpfn ~vmpl:T.Vmpl3) then
    Error "ring frame is not OS-writable private memory"
  else begin
    t.rings.(vcpu_id) <- Some ring;
    Ok ()
  end

let ring_of t ~vcpu_id =
  if vcpu_id < 0 || vcpu_id >= Array.length t.rings then None else t.rings.(vcpu_id)

(* Producer side of a slot: the OS copies the request into its own
   ring memory (the Copy cost the IDCB write would have paid). *)
let ring_submit _t vcpu ring req =
  if Ring.submit ring req then begin
    V.charge vcpu C.Copy (C.copy_cost (Idcb.request_size req));
    true
  end
  else false

(* A batch with any VMPL-0-delegated slot is served entirely at
   Dom_MON — the more privileged domain can run the Dom_SEC services'
   dispatch, the reverse cannot happen. *)
let batch_target ring n =
  let rec go i =
    if i >= n then Privdom.Sec
    else
      match classify_target (Ring.peek ring i) with
      | Privdom.Mon -> Privdom.Mon
      | _ -> go (i + 1)
  in
  go 0

(* Trusted-domain service of every pending slot.  Replay suppression
   at (batch_seq, slot) granularity: the producer stamps a monotonic
   batch sequence at flush time, and a duplicated/replayed relay of an
   already-served batch answers from the cached per-slot responses
   (still sitting in the ring) without re-executing anything.  A slot
   that fails its framing check — e.g. scribbled by the OS or a
   DMA-capable device between submit and drain, the ring being OS
   memory — is rejected and journaled individually; the rest of the
   batch is served normally.  Degraded, never silent. *)
let serve_batch t vcpu ring =
  (match ring_of t ~vcpu_id:(Ring.vcpu_id ring) with
  | Some r when r == ring -> ()
  | _ -> failwith "serve_batch: unregistered ring");
  let sh = t.shards.(Ring.vcpu_id ring) in
  let bseq = Ring.batch_seq ring in
  if t.replay_guard && sh.sh_batch_seq = bseq then begin
    Obs.Metrics.add t.c_replays sh.sh_batch_n;
    sh.sh_batch_n
  end
  else begin
    let n = Ring.pending ring in
    (match t.platform.P.chaos with
    | Some plan when Chaos.Fault_plan.site_enabled plan Chaos.Fault_plan.Ring_slot_corrupt ->
        for i = 0 to n - 1 do
          if Chaos.Fault_plan.fire plan Chaos.Fault_plan.Ring_slot_corrupt then begin
            Ring.corrupt_slot ring i;
            P.chaos_mark t.platform (Some vcpu) "ring_slot_corrupt"
          end
        done
    | _ -> ());
    for i = 0 to n - 1 do
      let resp =
        if Ring.slot_is_corrupt ring i then begin
          t.stats.sanitizer_rejections <- t.stats.sanitizer_rejections + 1;
          Obs.Metrics.incr t.c_sanitizer_rejections;
          Obs.Metrics.incr t.c_ring_slot_rejected;
          Idcb.Resp_error "ring slot failed its framing check"
        end
        else
          match sanitize t vcpu (Ring.peek ring i) with
          | Error e ->
              t.stats.sanitizer_rejections <- t.stats.sanitizer_rejections + 1;
              Obs.Metrics.incr t.c_sanitizer_rejections;
              Idcb.Resp_error e
          | Ok () -> dispatch t vcpu (Ring.peek ring i)
      in
      Ring.set_response ring i resp
    done;
    sh.sh_batch_seq <- bseq;
    sh.sh_batch_n <- n;
    n
  end

(* One flush: a single Monitor+Switch entry amortized over every
   pending slot.  Accounted in the serialized-entry ledger as one
   entry under the dedicated [ring_flush] tag — the batch, not any one
   slot, holds the monitor. *)
let os_call_batch t vcpu ring =
  if Ring.is_empty ring then 0
  else begin
    let n = Ring.pending ring in
    Obs.Metrics.incr t.c_ring_flushes;
    Obs.Metrics.add t.c_ring_slots n;
    let arrival = ledger_arrival t in
    let queued = ledger_queued t ~arrival and mon0 = monitor_cycles vcpu in
    let prof = t.platform.P.profiler in
    let minted = Obs.Profiler.enabled prof && V.causal_id vcpu = 0 in
    if minted then Obs.Profiler.set_id prof ~vcpu:vcpu.V.id (Obs.Profiler.mint prof);
    V.open_frame vcpu "os_call_batch";
    let tr = t.platform.P.tracer in
    if Obs.Trace.enabled tr then begin
      Obs.Trace.span_begin tr ~bucket:"monitor" ~id:(V.causal_id vcpu)
        ~vcpu:vcpu.V.id ~vmpl:(T.vmpl_index (V.vmpl vcpu)) ~ts:(V.rdtsc vcpu) "os_call_batch";
      if queued > 0 then
        Obs.Trace.complete tr ~bucket:"monitor" ~id:(V.causal_id vcpu)
          ~vcpu:vcpu.V.id ~vmpl:(T.vmpl_index (V.vmpl vcpu)) ~ts:(V.rdtsc vcpu) ~dur:queued
          (Obs.Trace.Wait Obs.Trace.Ring_flush)
    end;
    (* The producer stamps the batch sequence covering every pending
       slot (the slot copies were already charged at submit time). *)
    ignore (Ring.stamp_flush ring);
    let target = batch_target ring n in
    domain_switch t vcpu ~target;
    let served = serve_batch t vcpu ring in
    domain_switch t vcpu ~target:Privdom.Unt;
    (* Completion scan: the OS reads each slot's response out of its
       own ring memory, then retires the slots. *)
    for i = 0 to n - 1 do
      V.charge vcpu C.Copy (C.copy_cost (Idcb.response_size (Ring.response_at ring i)))
    done;
    Ring.consume ring;
    if Obs.Trace.enabled tr then
      Obs.Trace.span_end tr ~vcpu:vcpu.V.id ~vmpl:(T.vmpl_index (V.vmpl vcpu)) ~ts:(V.rdtsc vcpu)
        "os_call_batch";
    V.close_frame vcpu;
    if minted then Obs.Profiler.set_id prof ~vcpu:vcpu.V.id 0;
    ledger_exit t vcpu ~tag:Idcb.ring_flush_tag ~arrival ~queued ~mon0;
    served
  end

type wait_stats = {
  ws_entries : int;
  ws_busy_cycles : int;
  ws_queued_cycles : int;
  ws_by_type : (string * int * int * int) list;
}

let wait_stats t =
  let by_type = ref [] in
  for tag = Idcb.ntags - 1 downto 0 do
    if t.tag_entries.(tag) > 0 then
      by_type := (Idcb.tag_name tag, t.tag_entries.(tag), t.tag_busy.(tag), t.tag_queued.(tag)) :: !by_type
  done;
  { ws_entries = t.mon_entries; ws_busy_cycles = t.mon_busy_cycles;
    ws_queued_cycles = t.mon_queued_cycles; ws_by_type = !by_type }

let reset_wait_ledger t =
  t.mon_busy_until <- 0;
  (* Re-zero every VCPU's window clock: from here on, arrivals are
     relative to this instant of each VCPU's own timeline. *)
  Array.fill t.ledger_clock_base 0 (Array.length t.ledger_clock_base) 0;
  List.iter
    (fun vcpu ->
      if vcpu.V.id < Array.length t.ledger_clock_base then
        t.ledger_clock_base.(vcpu.V.id) <- V.rdtsc vcpu)
    (P.vcpus t.platform);
  t.mon_entries <- 0;
  t.mon_busy_cycles <- 0;
  t.mon_queued_cycles <- 0;
  Array.fill t.tag_entries 0 Idcb.ntags 0;
  Array.fill t.tag_busy 0 Idcb.ntags 0;
  Array.fill t.tag_queued 0 Idcb.ntags 0

(* --- service primitives --- *)

let mon_rmpadjust t vcpu ~gpfn ~target ~perms =
  retry_insn t vcpu "rmpadjust" (fun () ->
      P.rmpadjust t.platform vcpu ~leg:C.Rmpadjust_monitor ~gpfn ~target:(Privdom.vmpl target) ~perms
        ~vmsa:false)

let set_enclave_ghcb_policy t vcpu ~ghcb_gpfn =
  (* Must be issued from Dom_MON (the hypervisor only honors VMPL-0). *)
  let here = Privdom.of_vmpl (V.vmpl vcpu) in
  let allowed = [ (T.Vmpl3, T.Vmpl2); (T.Vmpl2, T.Vmpl1) ] in
  let install () =
    match hypercall t vcpu (Sevsnp.Ghcb.Req_set_switch_policy { ghcb_gpfn; allowed }) with
    | 0 -> ()
    | _ -> P.halt t.platform "hypervisor refused the enclave GHCB switch policy"
  in
  if Privdom.equal here Privdom.Mon then install ()
  else begin
    domain_switch t vcpu ~target:Privdom.Mon;
    install ();
    domain_switch t vcpu ~target:here
  end

(* --- attestation & channel (§5.1) --- *)

let dh_public t = t.dh.Veil_crypto.Dh.public

let attestation_report t vcpu ~nonce =
  let here = Privdom.of_vmpl (V.vmpl vcpu) in
  let get () =
    let buf = Buffer.create 64 in
    Buffer.add_bytes buf nonce;
    Buffer.add_bytes buf (Veil_crypto.Bignum.to_bytes_be (dh_public t));
    let report_data = Veil_crypto.Sha256.digest_string (Buffer.contents buf) in
    P.attestation_report t.platform vcpu ~report_data
  in
  if Privdom.equal here Privdom.Mon then get ()
  else begin
    domain_switch t vcpu ~target:Privdom.Mon;
    let r = get () in
    domain_switch t vcpu ~target:here;
    r
  end

let session_key_with t ~peer_public =
  Veil_crypto.Dh.shared_secret ~secret:t.dh.Veil_crypto.Dh.secret ~peer_public ()

let weaken_replay_guard_for_test t = t.replay_guard <- false
