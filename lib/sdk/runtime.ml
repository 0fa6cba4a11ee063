module T = Sevsnp.Types
module C = Sevsnp.Cycles
module K = Guest_kernel.Ktypes
module S = Guest_kernel.Sysno
module Kern = Guest_kernel.Kernel
module Ed = Guest_kernel.Enclave_desc

exception Enclave_killed of string

type stats = {
  mutable ocalls : int;
  mutable enclave_entries : int;
  mutable enclave_exits : int;
  mutable redirect_bytes : int;
  mutable redirect_cycles : int;
  mutable exit_cycles : int;
  mutable interrupts_while_inside : int;
}

type t = {
  sys : Veil_core.Boot.veil_system;
  proc : Guest_kernel.Process.t;
  enclave : Veil_core.Encsvc.enclave;
  desc : Ed.t;
  heap : Dlmalloc.t;
  veil_fd : int;
  arena_va : T.va;
  arena_bytes : int;
  arena_scratch : bytes;  (** preallocated bounce buffer — ocall arena crossings allocate nothing *)
  kernel_ghcb : T.gpa;
  stats : stats;
  mutable is_inside : bool;
  mutable last_tick : int;
  mutable killed : bool;
  mutable cur_vcpu : Sevsnp.Vcpu.t option;  (** VCPU the thread is pinned to *)
}

let tick_period = C.freq_hz / 250 (* 250 Hz guest timer *)

let system t = t.sys
let proc t = t.proc
let enclave t = t.enclave
let stats t = t.stats
let inside t = t.is_inside

let measurement t =
  match t.desc.Ed.measurement with Some m -> m | None -> failwith "enclave not measured"

let heap_base t =
  match List.find_opt (fun p -> p.Ed.page_kind = Ed.Heap) t.desc.Ed.pages with
  | Some p -> p.Ed.page_va
  | None -> failwith "enclave has no heap"

let enclave_range t =
  let lo = t.desc.Ed.base_va in
  (lo, lo + (Ed.npages t.desc * T.page_size))

let create sys ?(heap_pages = 16) ?(stack_pages = 4) ~binary proc =
  let kernel = sys.Veil_core.Boot.kernel in
  let vcpu = sys.Veil_core.Boot.vcpu in
  let veil_fd = Kern.open_veil_device kernel proc in
  match
    Kern.invoke kernel proc S.Ioctl
      [ K.Int veil_fd; K.Int 1; K.Buf binary; K.Int heap_pages; K.Int stack_pages ]
  with
  | K.RErr e -> Error ("enclave creation failed: " ^ K.errno_to_string e)
  | K.RInt id -> (
      match (proc.Guest_kernel.Process.enclave, Veil_core.Encsvc.find sys.Veil_core.Boot.enc id) with
      | Some desc, Some enclave ->
          let heap_lo =
            match List.find_opt (fun p -> p.Ed.page_kind = Ed.Heap) desc.Ed.pages with
            | Some p -> p.Ed.page_va
            | None -> desc.Ed.base_va
          in
          let arena_va = match desc.Ed.shared with (va, _) :: _ -> va | [] -> 0 in
          Ok
            {
              sys;
              proc;
              enclave;
              desc;
              heap = Dlmalloc.create ~base:heap_lo ~size:(heap_pages * T.page_size);
              veil_fd;
              arena_va;
              arena_bytes = List.length desc.Ed.shared * T.page_size;
              arena_scratch = Bytes.create (List.length desc.Ed.shared * T.page_size);
              kernel_ghcb = (Sevsnp.Vcpu.current_vmsa vcpu).Sevsnp.Vmsa.ghcb_gpa;
              stats =
                {
                  ocalls = 0;
                  enclave_entries = 0;
                  enclave_exits = 0;
                  redirect_bytes = 0;
                  redirect_cycles = 0;
                  exit_cycles = 0;
                  interrupts_while_inside = 0;
                };
              is_inside = false;
              last_tick = Sevsnp.Vcpu.rdtsc vcpu;
              killed = false;
              cur_vcpu = None;
            }
      | _ -> Error "enclave descriptor missing after creation")
  | _ -> Error "unexpected ioctl return"

let destroy t =
  if t.is_inside then Error "cannot destroy from inside the enclave"
  else begin
    match
      Kern.invoke t.sys.Veil_core.Boot.kernel t.proc S.Ioctl [ K.Int t.veil_fd; K.Int 2 ]
    with
    | K.RInt _ -> Ok ()
    | K.RErr e -> Error (K.errno_to_string e)
    | _ -> Error "unexpected ioctl return"
  end

let vcpu t = match t.cur_vcpu with Some v -> v | None -> t.sys.Veil_core.Boot.vcpu

let switch_bucket t = Sevsnp.Cycles.read_bucket (vcpu t).Sevsnp.Vcpu.counter Sevsnp.Cycles.Switch

let enter t =
  let before = switch_bucket t in
  Veil_core.Encsvc.enter t.sys.Veil_core.Boot.enc (vcpu t) t.enclave;
  t.stats.exit_cycles <- t.stats.exit_cycles + (switch_bucket t - before);
  t.stats.enclave_entries <- t.stats.enclave_entries + 1;
  t.is_inside <- true

let leave t =
  let before = switch_bucket t in
  Veil_core.Encsvc.exit_enclave t.sys.Veil_core.Boot.enc (vcpu t) t.enclave
    ~restore_ghcb:t.kernel_ghcb;
  t.stats.exit_cycles <- t.stats.exit_cycles + (switch_bucket t - before);
  t.stats.enclave_exits <- t.stats.enclave_exits + 1;
  t.is_inside <- false

let profiler t = t.sys.Veil_core.Boot.platform.Sevsnp.Platform.profiler

let run t body =
  if t.killed then raise (Enclave_killed "enclave was killed");
  (* An ecall is a request origin: the causal id minted here rides the
     VCPU through every ocall, world switch, and audit append the body
     performs. *)
  let prof = profiler t in
  let vc = (vcpu t).Sevsnp.Vcpu.id in
  let minted = Obs.Profiler.enabled prof && Obs.Profiler.id prof ~vcpu:vc = 0 in
  if minted then Obs.Profiler.set_id prof ~vcpu:vc (Obs.Profiler.mint prof);
  let finish () = if minted then Obs.Profiler.set_id prof ~vcpu:vc 0 in
  enter t;
  match body t with
  | result ->
      leave t;
      finish ();
      result
  | exception e ->
      if t.is_inside then leave t;
      finish ();
      raise e

let maybe_tick t =
  let now = Sevsnp.Vcpu.rdtsc (vcpu t) in
  if now - t.last_tick >= tick_period then begin
    t.last_tick <- now;
    let was_inside = t.is_inside in
    let before = switch_bucket t in
    Hypervisor.Hv.inject_interrupt t.sys.Veil_core.Boot.hv (vcpu t);
    if was_inside then begin
      (* Interrupt relayed out of Dom_ENC and back (§6.2). *)
      t.stats.interrupts_while_inside <- t.stats.interrupts_while_inside + 1;
      t.stats.enclave_exits <- t.stats.enclave_exits + 1;
      t.stats.exit_cycles <- t.stats.exit_cycles + (switch_bucket t - before)
    end
  end

let compute t n =
  Sevsnp.Vcpu.charge (vcpu t) C.Compute n;
  maybe_tick t

let charge_redirect t cost =
  Sevsnp.Vcpu.charge (vcpu t) C.Copy cost;
  t.stats.redirect_cycles <- t.stats.redirect_cycles + cost

let arena_touch t len write =
  (* Deep copy through the shared arena: a bounded chunk physically
     moves through the protected tables; the full spec-driven
     marshaling cost is charged on top. *)
  if t.arena_va <> 0 && len > 0 then begin
    let n = min len t.arena_bytes in
    if write then
      Veil_core.Encsvc.write_mem_sub ~leg:C.Copy t.sys.Veil_core.Boot.enc (vcpu t) t.enclave
        ~va:t.arena_va t.arena_scratch 0 n
    else
      Veil_core.Encsvc.read_mem_into ~leg:C.Copy t.sys.Veil_core.Boot.enc (vcpu t) t.enclave
        ~va:t.arena_va t.arena_scratch 0 n;
    let marshal_extra = C.deep_copy_cost len - C.copy_cost n in
    Sevsnp.Vcpu.charge (vcpu t) C.Copy marshal_extra;
    t.stats.redirect_cycles <- t.stats.redirect_cycles + C.copy_cost n + marshal_extra
  end

let kill t reason =
  t.killed <- true;
  if t.is_inside then leave t;
  raise (Enclave_killed reason)

let ocall t sys args =
  if not t.is_inside then invalid_arg "Runtime.ocall: not inside the enclave";
  if t.killed then raise (Enclave_killed "enclave was killed");
  t.stats.ocalls <- t.stats.ocalls + 1;
  let spec = Spec.spec_of sys in
  if not spec.Spec.sdk_supported then
    kill t (Printf.sprintf "unsupported system call %s" (S.to_string sys));
  match Sanitizer.check_call spec args with
  | Error e ->
      charge_redirect t 200;
      ignore e;
      K.RErr K.EINVAL
  | Ok () ->
      Sevsnp.Vcpu.open_frame (vcpu t) "ocall";
      (* Deep-copy arguments into the untrusted arena (§6.2). *)
      let in_bytes = Spec.copy_in_bytes spec args in
      let sanitize_cost = 800 + (60 * List.length args) in
      Sevsnp.Vcpu.charge (vcpu t) C.Compute sanitize_cost;
      t.stats.redirect_cycles <- t.stats.redirect_cycles + sanitize_cost;
      t.stats.redirect_bytes <- t.stats.redirect_bytes + in_bytes;
      arena_touch t in_bytes true;
      (* Exit to the untrusted application, which executes the call. *)
      leave t;
      maybe_tick t;
      let ret = Kern.invoke t.sys.Veil_core.Boot.kernel t.proc sys args in
      enter t;
      (* Copy results back in and sanitize returned values. *)
      let out_bytes = Spec.copy_out_bytes ret in
      t.stats.redirect_bytes <- t.stats.redirect_bytes + out_bytes;
      arena_touch t out_bytes false;
      let lo, hi = enclave_range t in
      let result =
        match Sanitizer.iago_check spec ret ~enclave_lo:lo ~enclave_hi:hi with
        | Ok () -> ret
        | Error _ -> K.RErr K.EFAULT
      in
      Sevsnp.Vcpu.close_frame (vcpu t);
      result

(* §10 batching: one exit amortized over the whole batch. *)
let ocall_batch t calls =
  if not t.is_inside then invalid_arg "Runtime.ocall_batch: not inside the enclave";
  if t.killed then raise (Enclave_killed "enclave was killed");
  (* validate + marshal everything before paying the exit *)
  let prepared =
    List.map
      (fun (sys, args) ->
        let spec = Spec.spec_of sys in
        if not spec.Spec.sdk_supported then
          kill t (Printf.sprintf "unsupported system call %s in batch" (S.to_string sys));
        (sys, args, spec, Sanitizer.check_call spec args))
      calls
  in
  let in_bytes =
    List.fold_left
      (fun acc (_, args, spec, ok) ->
        match ok with Ok () -> acc + Spec.copy_in_bytes spec args | Error _ -> acc)
      0 prepared
  in
  List.iter
    (fun (_, args, _, _) ->
      let sanitize_cost = 800 + (60 * List.length args) in
      Sevsnp.Vcpu.charge (vcpu t) C.Compute sanitize_cost;
      t.stats.redirect_cycles <- t.stats.redirect_cycles + sanitize_cost)
    prepared;
  t.stats.ocalls <- t.stats.ocalls + List.length calls;
  t.stats.redirect_bytes <- t.stats.redirect_bytes + in_bytes;
  arena_touch t in_bytes true;
  leave t;
  maybe_tick t;
  let rets =
    List.map
      (fun (sys, args, _, ok) ->
        match ok with
        | Error _ -> K.RErr K.EINVAL
        | Ok () -> Kern.invoke t.sys.Veil_core.Boot.kernel t.proc sys args)
      prepared
  in
  enter t;
  let out_bytes = List.fold_left (fun acc r -> acc + Spec.copy_out_bytes r) 0 rets in
  t.stats.redirect_bytes <- t.stats.redirect_bytes + out_bytes;
  arena_touch t out_bytes false;
  let lo, hi = enclave_range t in
  List.map2
    (fun (_, _, spec, _) ret ->
      match Sanitizer.iago_check spec ret ~enclave_lo:lo ~enclave_hi:hi with
      | Ok () -> ret
      | Error _ -> K.RErr K.EFAULT)
    prepared rets

(* §10 multi-threading: pin the enclave thread to another VCPU (the OS
   scheduler asks VeilS-ENC to synchronize that VCPU's Dom_ENC
   instance first), then run the body there. *)
let run_on t target_vcpu body =
  if t.killed then raise (Enclave_killed "enclave was killed");
  if t.is_inside then invalid_arg "Runtime.run_on: already inside";
  (match
     Veil_core.Monitor.os_call t.sys.Veil_core.Boot.mon t.sys.Veil_core.Boot.vcpu
       (Veil_core.Idcb.R_enclave_schedule
          { enclave_id = t.desc.Ed.enclave_id; vcpu_id = target_vcpu.Sevsnp.Vcpu.id })
   with
  | Veil_core.Idcb.Resp_ok -> ()
  | Veil_core.Idcb.Resp_error e -> failwith ("run_on: " ^ e)
  | _ -> failwith "run_on: unexpected response");
  t.cur_vcpu <- Some target_vcpu;
  Fun.protect
    ~finally:(fun () -> t.cur_vcpu <- None)
    (fun () -> run t body)

let malloc t n = Dlmalloc.malloc t.heap n
let free t addr = Dlmalloc.free t.heap addr

let read_data t ~va ~len =
  Veil_core.Encsvc.read_mem t.sys.Veil_core.Boot.enc (vcpu t) t.enclave ~va ~len

let write_data t ~va data =
  Veil_core.Encsvc.write_mem t.sys.Veil_core.Boot.enc (vcpu t) t.enclave ~va data
