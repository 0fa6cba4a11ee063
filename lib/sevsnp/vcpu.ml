type t = {
  id : int;
  mutable current : Vmsa.t option;
  entered : Vmsa.t option array;
  counter : Cycles.counter;
  tlb : Tlb.t;
  mutable exits : int;
  mutable pending_interrupts : int;
  mutable last_exit_ts : int;
  prof : Obs.Profiler.t;
}

let create ~id ~tlb_gen ~prof =
  { id; current = None; entered = Array.make 4 None; counter = Cycles.create_counter ();
    tlb = Tlb.create ~gen:tlb_gen; exits = 0; pending_interrupts = 0; last_exit_ts = 0; prof }

let current_vmsa t =
  match t.current with
  | Some v -> v
  | None -> failwith (Printf.sprintf "vcpu %d has no running instance" t.id)

let vmpl t = (current_vmsa t).Vmsa.vmpl
let cpl t = (current_vmsa t).Vmsa.cpl

let rdtsc t = Cycles.total t.counter

(* Frames are timed on this CPU's own counter, the clock [charge]
   advances, so closed frames and leaves partition the charged cycles. *)
let open_frame t name =
  if Obs.Profiler.enabled t.prof then
    Obs.Profiler.push t.prof ~vcpu:t.id ~vmpl:(Types.vmpl_index (vmpl t)) ~ts:(rdtsc t) name

let close_frame t = Obs.Profiler.pop t.prof ~vcpu:t.id ~ts:(rdtsc t)

let causal_id t = Obs.Profiler.id t.prof ~vcpu:t.id

let charge t leg n =
  Cycles.charge t.counter leg n;
  if
    Obs.Profiler.enabled t.prof
    && not (Cycles.is_work leg && Obs.Profiler.open_frames t.prof ~vcpu:t.id > 0)
  then
    let vmpl = match t.current with Some v -> Types.vmpl_index v.Vmsa.vmpl | None -> -1 in
    Obs.Profiler.leaf t.prof ~vcpu:t.id ~vmpl ~dur:n (Cycles.leg_name leg)
