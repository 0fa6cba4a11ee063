module P = Sevsnp.Platform
module T = Sevsnp.Types
module G = Sevsnp.Ghcb
module C = Sevsnp.Cycles

type stats = {
  mutable domain_switches : int;
  mutable io_requests : int;
  mutable io_bytes : int;
  mutable interrupts_injected : int;
  mutable page_state_changes : int;
}

type t = {
  platform : P.t;
  vmsas : (int, Sevsnp.Vmsa.t) Hashtbl.t; (* [instance_key] -> instance *)
  switch_policy : (T.gpfn, (T.vmpl * T.vmpl) list) Hashtbl.t;
  (* Counters live in the platform's metrics registry; these are the
     interned handles. *)
  c_switches : Obs.Metrics.counter;
  c_io_requests : Obs.Metrics.counter;
  c_io_bytes : Obs.Metrics.counter;
  c_interrupts : Obs.Metrics.counter;
  c_psc : Obs.Metrics.counter;
  c_relay_refused : Obs.Metrics.counter;
  c_relay_dropped : Obs.Metrics.counter;
  c_relay_coalesced : Obs.Metrics.counter;
  mutable relay_target : T.vmpl option;
  mutable refuse_interrupt_relay : bool;
  mutable interrupt_handler : (Sevsnp.Vcpu.t -> unit) option;
  mutable kernel_handler_gpfn : T.gpfn option;
  mutable deferred_irq : bool;  (* chaos relay_reorder holds one interrupt back *)
}

let platform t = t.platform

let stats t =
  {
    domain_switches = Obs.Metrics.value t.c_switches;
    io_requests = Obs.Metrics.value t.c_io_requests;
    io_bytes = Obs.Metrics.value t.c_io_bytes;
    interrupts_injected = Obs.Metrics.value t.c_interrupts;
    page_state_changes = Obs.Metrics.value t.c_psc;
  }

(* (vcpu_id, vmpl) packed into one int: the relay looks instances up
   on every switch, and an int key hashes without allocating. *)
let instance_key ~vcpu_id ~vmpl = (vcpu_id * 4) + T.vmpl_index vmpl

(* Raises [Not_found]; the relay's allocation-free lookup. *)
let find_vmsa t ~vcpu_id ~vmpl = Hashtbl.find t.vmsas (instance_key ~vcpu_id ~vmpl)

let vmsa_for t ~vcpu_id ~vmpl =
  match find_vmsa t ~vcpu_id ~vmpl with v -> Some v | exception Not_found -> None

let register_vmsa t (vmsa : Sevsnp.Vmsa.t) =
  Hashtbl.replace t.vmsas
    (instance_key ~vcpu_id:vmsa.Sevsnp.Vmsa.vcpu_id ~vmpl:vmsa.Sevsnp.Vmsa.vmpl)
    vmsa

let rec pair_listed a b = function
  | [] -> false
  | (x, y) :: rest ->
      (T.equal_vmpl a x && T.equal_vmpl b y)
      || (T.equal_vmpl a y && T.equal_vmpl b x)
      || pair_listed a b rest

let policy_allows t ~ghcb_gpfn ~a ~b =
  match Hashtbl.find t.switch_policy ghcb_gpfn with
  | pairs -> pair_listed a b pairs
  | exception Not_found -> true

let handle_domain_switch t vcpu target_vmpl =
  let vmsa = Sevsnp.Vcpu.current_vmsa vcpu in
  let ghcb_gpfn = T.gpfn_of_gpa vmsa.Sevsnp.Vmsa.ghcb_gpa in
  let from = vmsa.Sevsnp.Vmsa.vmpl in
  (* The host relay leg, billed while the source instance's clock still
     runs (VMENTER has not happened yet). *)
  let relay = C.switch_cost C.Hv_relay in
  Sevsnp.Vcpu.charge vcpu C.Hv_relay relay;
  (* From the guest's point of view the relay leg is pure waiting: the
     VCPU is out of the guest while the (untrusted) host decides to
     re-enter it.  Emit it as a wait edge on the request's causal id. *)
  (let tr = t.platform.P.tracer in
   if Obs.Trace.enabled tr then
     Obs.Trace.complete tr ~bucket:"switch" ~id:(Sevsnp.Vcpu.causal_id vcpu)
       ~vcpu:vcpu.Sevsnp.Vcpu.id ~vmpl:(T.vmpl_index from)
       ~ts:(Sevsnp.Vcpu.rdtsc vcpu - relay) ~dur:relay
       (Obs.Trace.Wait Obs.Trace.Relay));
  if not (policy_allows t ~ghcb_gpfn ~a:from ~b:target_vmpl) then
    P.halt t.platform
      (Format.asprintf "domain switch %a -> %a via GHCB frame %d violates installed policy" T.pp_vmpl from
         T.pp_vmpl target_vmpl ghcb_gpfn)
  else begin
    match find_vmsa t ~vcpu_id:vcpu.Sevsnp.Vcpu.id ~vmpl:target_vmpl with
    | exception Not_found ->
        P.halt t.platform
          (Format.asprintf "no VMSA registered for vcpu %d at %a" vcpu.Sevsnp.Vcpu.id T.pp_vmpl target_vmpl)
    | target ->
        Obs.Metrics.incr t.c_switches;
        P.vmenter t.platform vcpu target;
        (* Whole relayed switch as one span: from the moment the source
           instance began its VMGEXIT (pre-charge) to now — exactly the
           calibrated Cycles.domain_switch extent. *)
        let tr = t.platform.P.tracer in
        if Obs.Trace.enabled tr then begin
          let ts0 = vcpu.Sevsnp.Vcpu.last_exit_ts in
          Obs.Trace.complete tr ~bucket:"switch" ~arg:(T.vmpl_index target_vmpl)
            ~id:(Sevsnp.Vcpu.causal_id vcpu) ~vcpu:vcpu.Sevsnp.Vcpu.id
            ~vmpl:(T.vmpl_index target_vmpl) ~ts:ts0
            ~dur:(Sevsnp.Vcpu.rdtsc vcpu - ts0) Obs.Trace.Domain_switch
        end
  end

let handle_create_vcpu t vcpu ~vmsa_gpfn ~target_vmpl =
  let ghcb = P.ghcb_of_vcpu t.platform vcpu in
  match P.vmsa_at t.platform vmsa_gpfn with
  | None -> ( (* not a hardware-accepted VMSA: refuse, guest sees error *)
      match ghcb with Some g -> g.G.response <- 1 | None -> ())
  | Some vmsa ->
      if not (T.equal_vmpl vmsa.Sevsnp.Vmsa.vmpl target_vmpl) then (
        match ghcb with Some g -> g.G.response <- 1 | None -> ())
      else begin
        register_vmsa t vmsa;
        (* An instance for a not-yet-running VCPU boots it (AP/hotplug). *)
        let target_vcpu = P.vcpu_by_id t.platform vmsa.Sevsnp.Vmsa.vcpu_id in
        (match target_vcpu with
        | Some v when v.Sevsnp.Vcpu.current = None -> P.vmenter t.platform v vmsa
        | _ -> ());
        match ghcb with Some g -> g.G.response <- 0 | None -> ()
      end

let service_exit t vcpu =
  match P.current_ghcb t.platform vcpu with
  | exception Not_found -> P.halt t.platform "non-automatic exit without a GHCB"
  | ghcb -> (
      match ghcb.G.request with
      | G.Req_none -> () (* automatic exit: nothing for the host to do *)
      | G.Req_domain_switch { target_vmpl } ->
          ghcb.G.request <- G.Req_none;
          handle_domain_switch t vcpu target_vmpl
      | G.Req_create_vcpu { vmsa_gpfn; target_vmpl } ->
          ghcb.G.request <- G.Req_none;
          handle_create_vcpu t vcpu ~vmsa_gpfn ~target_vmpl
      | G.Req_io { write; port = _; len } ->
          ghcb.G.request <- G.Req_none;
          Obs.Metrics.incr t.c_io_requests;
          Obs.Metrics.add t.c_io_bytes len;
          Sevsnp.Vcpu.charge vcpu C.Io (C.io_cost len);
          (let tr = t.platform.P.tracer in
           if Obs.Trace.enabled tr then
             Obs.Trace.emit tr ~vcpu:vcpu.Sevsnp.Vcpu.id
               ~vmpl:(T.vmpl_index (Sevsnp.Vcpu.vmpl vcpu)) ~ts:(Sevsnp.Vcpu.rdtsc vcpu)
               ~bucket:"io" ~arg:len Obs.Trace.Io);
          ignore write;
          ghcb.G.response <- 0;
          P.vmenter t.platform vcpu (Sevsnp.Vcpu.current_vmsa vcpu)
      | G.Req_page_state_change { gpfn = _; to_shared = _ } ->
          ghcb.G.request <- G.Req_none;
          Obs.Metrics.incr t.c_psc;
          ghcb.G.response <- 0;
          P.vmenter t.platform vcpu (Sevsnp.Vcpu.current_vmsa vcpu)
      | G.Req_set_switch_policy { ghcb_gpfn; allowed } ->
          ghcb.G.request <- G.Req_none;
          (* Only honored from the hypervisor-known VMPL-0 instance; a
             lower domain cannot retune the guard rails. *)
          if T.equal_vmpl (Sevsnp.Vcpu.vmpl vcpu) T.Vmpl0 then begin
            Hashtbl.replace t.switch_policy ghcb_gpfn allowed;
            ghcb.G.response <- 0
          end
          else ghcb.G.response <- 1;
          P.vmenter t.platform vcpu (Sevsnp.Vcpu.current_vmsa vcpu)
      | G.Req_relay_interrupts_to vmpl ->
          ghcb.G.request <- G.Req_none;
          if T.equal_vmpl (Sevsnp.Vcpu.vmpl vcpu) T.Vmpl0 then begin
            t.relay_target <- Some vmpl;
            ghcb.G.response <- 0
          end
          else ghcb.G.response <- 1;
          P.vmenter t.platform vcpu (Sevsnp.Vcpu.current_vmsa vcpu)
      | G.Req_halt reason ->
          ghcb.G.request <- G.Req_none;
          P.halt t.platform reason)

(* Veil-Chaos responses are deliberately out of the {0, 1} GHCB
   protocol range so the guest-side sanitizer can tell "the hypervisor
   misbehaved" from any legitimate answer. *)
let chaos_refused_response = 0x5245 (* "RE" *)
let chaos_corrupt_response = 0x6000

let handle_exit t vcpu =
  match t.platform.P.chaos with
  | None -> service_exit t vcpu
  | Some plan ->
      (* pre-service: scheduling delay and exits the guest never asked
         for — pure cycle charges against the interrupted instance *)
      if Chaos.Fault_plan.fire plan Chaos.Fault_plan.Vmgexit_delay then begin
        Sevsnp.Vcpu.charge vcpu C.Switch (1_000 + Chaos.Fault_plan.draw plan 15_000);
        P.chaos_mark t.platform (Some vcpu) "vmgexit_delay"
      end;
      if Chaos.Fault_plan.fire plan Chaos.Fault_plan.Spurious_exit then begin
        List.iter (fun leg -> Sevsnp.Vcpu.charge vcpu leg (C.switch_cost leg))
          C.[ Vmgexit; Vmsa_save; Vmsa_restore ];
        P.chaos_mark t.platform (Some vcpu) "spurious_exit"
      end;
      (* Fetch the GHCB only if a GHCB-touching site can ever fire:
         the lookup allocates, and an armed all-zero plan must cost
         exactly what a disarmed platform does. *)
      let ghcb =
        if
          Chaos.Fault_plan.site_enabled plan Chaos.Fault_plan.Vmgexit_refuse
          || Chaos.Fault_plan.site_enabled plan Chaos.Fault_plan.Ghcb_corrupt
        then P.ghcb_of_vcpu t.platform vcpu
        else None
      in
      let refused =
        match ghcb with
        | Some g -> (
            match g.G.request with
            | G.Req_none | G.Req_halt _ -> false
            | _ -> Chaos.Fault_plan.fire plan Chaos.Fault_plan.Vmgexit_refuse)
        | None -> false
      in
      (match ghcb with
      | Some g when refused ->
          (* decline to service: clear the mailbox, answer out of
             protocol, resume the guest where it was *)
          g.G.request <- G.Req_none;
          g.G.response <- chaos_refused_response;
          P.chaos_mark t.platform (Some vcpu) "vmgexit_refuse";
          P.vmenter t.platform vcpu (Sevsnp.Vcpu.current_vmsa vcpu)
      | _ -> service_exit t vcpu);
      (* post-service: scribble the hypervisor-writable GHCB fields
         (response, exit_info) — never guest-owned state *)
      (match ghcb with
      | Some g when Chaos.Fault_plan.fire plan Chaos.Fault_plan.Ghcb_corrupt ->
          g.G.response <- chaos_corrupt_response lor Chaos.Fault_plan.draw plan 0x1000;
          g.G.exit_info <- Chaos.Fault_plan.draw plan 0x10000;
          P.chaos_mark t.platform (Some vcpu) "ghcb_corrupt"
      | _ -> ());
      if Chaos.Fault_plan.fire plan Chaos.Fault_plan.Shared_bitflip then
        P.chaos_flip_shared t.platform plan

let create platform =
  let m = platform.P.metrics in
  let t =
    {
      platform;
      vmsas = Hashtbl.create 16;
      switch_policy = Hashtbl.create 8;
      c_switches = Obs.Metrics.counter m "hv.domain_switches";
      c_io_requests = Obs.Metrics.counter m "hv.io_requests";
      c_io_bytes = Obs.Metrics.counter m "hv.io_bytes";
      c_interrupts = Obs.Metrics.counter m "hv.interrupts_injected";
      c_psc = Obs.Metrics.counter m "hv.page_state_changes";
      c_relay_refused = Obs.Metrics.counter m "hv.relay.refused";
      c_relay_dropped = Obs.Metrics.counter m "hv.relay.dropped";
      c_relay_coalesced = Obs.Metrics.counter m "hv.relay.coalesced";
      relay_target = None;
      refuse_interrupt_relay = false;
      interrupt_handler = None;
      kernel_handler_gpfn = None;
      deferred_irq = false;
    }
  in
  platform.P.exit_handler <- Some (handle_exit t);
  t

let launch_cvm t ~entry_name ~boot_image =
  P.launch_load t.platform ~entry_name boot_image;
  let vcpu = P.add_boot_vcpu t.platform in
  (* Firmware creates the boot VMSA at the top guest frame, at VMPL-0. *)
  let vmsa_gpfn = Sevsnp.Phys_mem.npages t.platform.P.mem - 1 in
  Sevsnp.Rmp.validate t.platform.P.rmp vmsa_gpfn;
  Sevsnp.Rmp.set_vmsa t.platform.P.rmp vmsa_gpfn true;
  let vmsa = Sevsnp.Vmsa.create ~vcpu_id:vcpu.Sevsnp.Vcpu.id ~vmpl:T.Vmpl0 ~backing_gpfn:vmsa_gpfn in
  (match P.install_vmsa t.platform vmsa with Ok () -> () | Error e -> failwith e);
  register_vmsa t vmsa;
  P.vmenter t.platform vcpu vmsa;
  vcpu

let set_interrupt_handler t f = t.interrupt_handler <- Some f

let kernel_handler_frame t gpfn = t.kernel_handler_gpfn <- Some gpfn

let set_refuse_interrupt_relay t b = t.refuse_interrupt_relay <- b

(* Instant relay events: satellite requirement that every refused /
   dropped / coalesced relay is visible in Perfetto. *)
let relay_event t vcpu name =
  let tr = t.platform.P.tracer in
  if Obs.Trace.enabled tr then
    Obs.Trace.emit tr ~phase:Obs.Trace.Instant ~bucket:"switch" ~vcpu:vcpu.Sevsnp.Vcpu.id
      ~vmpl:(T.vmpl_index (Sevsnp.Vcpu.vmpl vcpu)) ~ts:(Sevsnp.Vcpu.rdtsc vcpu)
      (Obs.Trace.Span name)

(* One delivery attempt, past drop/coalesce filtering: charge the
   delivery, relay across domains per [relay_target], honor refusal. *)
let deliver_one t vcpu =
  Sevsnp.Vcpu.charge vcpu C.Switch C.interrupt_delivery;
  let interrupted = Sevsnp.Vcpu.current_vmsa vcpu in
  let deliver () = match t.interrupt_handler with Some f -> f vcpu | None -> () in
  match t.relay_target with
  | Some target when not (T.equal_vmpl interrupted.Sevsnp.Vmsa.vmpl target) ->
      let refused =
        t.refuse_interrupt_relay
        ||
        match t.platform.P.chaos with
        | Some plan when Chaos.Fault_plan.fire plan Chaos.Fault_plan.Relay_refuse ->
            P.chaos_mark t.platform (Some vcpu) "relay_refuse";
            true
        | _ -> false
      in
      if refused then begin
        Obs.Metrics.incr t.c_relay_refused;
        relay_event t vcpu "hv.relay_refused";
        (* Force handling in the interrupted domain: fetching the
           kernel's handler there violates VMPL permissions. *)
        match t.kernel_handler_gpfn with
        | Some gpfn -> P.check_exec t.platform vcpu (T.gpa_of_gpfn gpfn)
        | None -> P.halt t.platform "interrupt with no handler reachable"
      end
      else begin
        P.vmgexit t.platform vcpu ~ghcb:false;
        (match find_vmsa t ~vcpu_id:vcpu.Sevsnp.Vcpu.id ~vmpl:target with
        | exception Not_found -> P.halt t.platform "no relay-target instance"
        | target_vmsa -> P.vmenter t.platform vcpu target_vmsa);
        deliver ();
        P.vmgexit t.platform vcpu ~ghcb:false;
        P.vmenter t.platform vcpu interrupted
      end
  | _ -> deliver ()

let deliver_acked t vcpu =
  vcpu.Sevsnp.Vcpu.pending_interrupts <- 1;
  deliver_one t vcpu;
  (* the handler returned: the guest has acked the vector *)
  vcpu.Sevsnp.Vcpu.pending_interrupts <- 0

let inject_interrupt t vcpu =
  Obs.Metrics.incr t.c_interrupts;
  if vcpu.Sevsnp.Vcpu.pending_interrupts > 0 then begin
    (* same vector already posted and not yet acked (e.g. injected
       again from inside the handler): hardware coalesces *)
    Obs.Metrics.incr t.c_relay_coalesced;
    relay_event t vcpu "hv.relay_coalesced"
  end
  else
    match t.platform.P.chaos with
    | None -> deliver_acked t vcpu
    | Some plan ->
        if Chaos.Fault_plan.fire plan Chaos.Fault_plan.Relay_drop then begin
          Obs.Metrics.incr t.c_relay_dropped;
          relay_event t vcpu "hv.relay_dropped";
          P.chaos_mark t.platform (Some vcpu) "relay_drop"
        end
        else if
          Chaos.Fault_plan.fire plan Chaos.Fault_plan.Relay_reorder && not t.deferred_irq
        then begin
          (* hold this interrupt back; it will be delivered after the
             next one, i.e. out of order *)
          t.deferred_irq <- true;
          P.chaos_mark t.platform (Some vcpu) "relay_reorder"
        end
        else begin
          deliver_acked t vcpu;
          if t.deferred_irq then begin
            t.deferred_irq <- false;
            (* the held-back older interrupt arrives after its younger peer *)
            deliver_acked t vcpu
          end;
          if Chaos.Fault_plan.fire plan Chaos.Fault_plan.Relay_dup then begin
            P.chaos_mark t.platform (Some vcpu) "relay_dup";
            deliver_acked t vcpu
          end
        end

(* --- Veil-SMP: deterministic VCPU interleaving --------------------- *)

(* The host scheduler decides which runnable VCPU gets the next
   timeslice.  For the simulation this must be *deterministic*: the
   same seed and the same VCPU count must yield the identical
   schedule, so chaos replay-identity and the E-scale reproducibility
   check keep holding with SMP guests.  Two policies:

   - [Round_robin]: cursor walks 0..n-1, skipping non-runnable VCPUs.
   - [Seeded]: the seed's [Rng.Interleave] stream picks the starting
     VCPU each step; the scan to the first runnable VCPU from there is
     deterministic too.

   Every choice is appended to a journal (one digit per step) so two
   runs can be compared byte-for-byte and a diverging schedule can be
   uploaded as a CI artifact.

   Veil-Explore turns each decision into an explicit *branch point*:
   [Scripted] drives the schedule from a previously recorded journal
   (byte-for-byte replay, with a typed error — never silent truncation
   — when the journal is shorter than the schedule it drives), and
   [Guided] hands the full runnable set to an external chooser so a
   schedule-tree search can enumerate the alternatives it did not
   take. *)
module Interleave = struct
  type policy =
    | Round_robin
    | Seeded of int
    | Scripted of string
    | Guided of (int list -> int)

  exception Journal_exhausted of { journal : string; steps : int }
  exception Journal_mismatch of { journal : string; step : int; chosen : int }

  type sched = {
    nvcpus : int;
    policy : policy;
    rng : Veil_crypto.Rng.t option; (* [Some] iff [Seeded] *)
    picks : int option array; (* [Some v] per VCPU, so a step allocates nothing *)
    mutable cursor : int;
    mutable steps : int;
    journal : Buffer.t;
  }

  let create ?(policy = Round_robin) ~nvcpus () =
    if nvcpus < 1 then invalid_arg "Hv.Interleave.create: nvcpus must be >= 1";
    (match policy with
    | Scripted _ | Guided _ when nvcpus > 10 ->
        (* the journal encodes one VCPU id per character *)
        invalid_arg "Hv.Interleave.create: scripted/guided schedules support at most 10 VCPUs"
    | _ -> ());
    let rng =
      match policy with
      | Seeded seed -> Some Veil_crypto.Rng.(create (derive seed ~domain:Interleave))
      | Round_robin | Scripted _ | Guided _ -> None
    in
    { nvcpus; policy; rng; picks = Array.init nvcpus Option.some; cursor = 0; steps = 0;
      journal = Buffer.create 256 }

  let record t v =
    t.cursor <- (v + 1) mod t.nvcpus;
    t.steps <- t.steps + 1;
    if v < 10 then Buffer.add_char t.journal (Char.unsafe_chr (48 + v))
    else Buffer.add_string t.journal (string_of_int v);
    t.picks.(v)

  (* Runnable VCPUs in ascending id order — the branch-point alphabet. *)
  let enabled t ~runnable =
    let rec go v acc = if v < 0 then acc else go (v - 1) (if runnable v then v :: acc else acc) in
    go (t.nvcpus - 1) []

  (* First runnable VCPU at or after [start], wrapping; -1 if none. *)
  let rec scan t runnable start k =
    if k >= t.nvcpus then -1
    else
      let v = (start + k) mod t.nvcpus in
      if runnable v then v else scan t runnable start (k + 1)

  let next t ~runnable =
    match t.policy with
    | Round_robin | Seeded _ ->
        let start =
          match t.rng with Some r -> Veil_crypto.Rng.int r t.nvcpus | None -> t.cursor
        in
        let v = scan t runnable start 0 in
        if v < 0 then None else record t v
    | Scripted j -> (
        match enabled t ~runnable with
        | [] -> None
        | en ->
            if t.steps >= String.length j then
              raise (Journal_exhausted { journal = j; steps = t.steps + 1 });
            let c = Char.code j.[t.steps] - Char.code '0' in
            if c < 0 || c >= t.nvcpus || not (List.mem c en) then
              raise (Journal_mismatch { journal = j; step = t.steps; chosen = c });
            record t c)
    | Guided f -> (
        match enabled t ~runnable with
        | [] -> None
        | en ->
            let c = f en in
            if not (List.mem c en) then
              invalid_arg "Hv.Interleave: guide chose a VCPU outside the runnable set";
            record t c)

  let journal t = Buffer.contents t.journal
  let steps t = t.steps
end

let try_tamper_vmsa t ~vcpu_id ~vmpl =
  match vmsa_for t ~vcpu_id ~vmpl with
  | None -> Error "no such VMSA"
  | Some vmsa ->
      let gpa = T.gpa_of_gpfn vmsa.Sevsnp.Vmsa.backing_gpfn in
      (* Try to overwrite the saved rip through host memory. *)
      (match P.host_write t.platform gpa (Bytes.make 8 '\xff') with
      | Ok () -> Ok () (* would indicate a broken platform *)
      | Error e -> Error e)

let try_read_guest t gpa len = P.host_read t.platform gpa len
