(* enclave-sql: one guest, 1 VCPU.  A Sqldb instance runs inside a
   VeilS-ENC enclave with its system calls redirected through the SDK
   ([Env.sys = Runtime.ocall]), on a keyspace larger than the B-tree
   pager's page cache, so point lookups miss it and do real 4 KiB page
   I/O through ocalls. *)

module S = Guest_kernel.Sysno
module Kern = Guest_kernel.Kernel
module B = Veil_core.Boot
module V = Sevsnp.Vcpu
module Rng = Veil_crypto.Rng
module Rt = Enclave_sdk.Runtime
module Env = Workloads.Env
module Sqldb = Workloads.Sqldb
module H = Harness

(* Statement mix, in periods of [period] statements: a seeded shuffle
   of [selects] point SELECTs and [period - selects - 1] upserts of
   Pareto-sized rows, then one more upsert whose commit runs the
   checkpoint (dirty-page pwrite + fsync, as SQLite's WAL
   auto-checkpoint rides the committing statement).  Exact shares per
   period keep the percentile ranks fixed: SELECTs are 75% of ops, so
   the median falls inside the cache-missing lookup mode; the
   checkpointing upserts are 3.1%, the costliest kind, and each writes
   back the ~8 leaves dirtied since the last one, so p99 falls inside
   that one mode.  The keyspace is loaded in a seeded random order, so
   leaf fill, and with it lookup cost, varies. *)
let period = 32
let selects = 24
let kind_names = [| "select"; "insert"; "insert+ckpt" |]

let key i = Printf.sprintf "k%07d" i

(* Truncated Pareto draw on [xm, cap] with shape [alpha]. *)
let pareto rng ~xm ~alpha ~cap =
  let u = (float_of_int (Rng.int rng (1 lsl 30)) +. 1.0) /. float_of_int (1 lsl 30) in
  min cap (int_of_float (float_of_int xm /. (u ** (1.0 /. alpha))))

(* rows are "key\x1fvalue" in the 64-byte B-tree value: keep the value
   at most 48 bytes, Pareto-sized from 8 *)
let value rng = String.init (pareto rng ~xm:8 ~alpha:1.3 ~cap:48) (fun _ -> Char.chr (97 + Rng.int rng 26))

type state = {
  sys : B.veil_system;
  rt : Rt.t;
  db : Sqldb.t;
  reference : string array;  (** benchmark-side value of every key *)
  page_io : int ref;  (** pread + pwrite issued through the enclave's Env.sys *)
}

let setup cfg tr master =
  let boot_seed = Rng.int master 1_000_000_000 in
  let sys = Span.wrap tr Span.k_boot (fun () -> B.boot_veil ~seed:boot_seed ()) in
  let kernel = sys.B.kernel in
  let nkeys = if cfg.H.small then 1024 else 16384 in
  (* data load: natively, before the enclave exists *)
  let loader_proc = Kern.spawn kernel in
  let loader =
    {
      Env.sys = (fun s a -> Kern.invoke kernel loader_proc s a);
      compute = (fun n -> V.charge (Kern.vcpu kernel) Sevsnp.Cycles.Compute n);
      env_rng = Rng.split master;
      env_rings = false;
    }
  in
  let reference = Array.init nkeys (fun _ -> value master) in
  let exec db stmt =
    match Sqldb.exec db stmt with Ok _ -> () | Error e -> failwith ("enclave-sql load: " ^ e)
  in
  let order = Array.init nkeys Fun.id in
  for i = nkeys - 1 downto 1 do
    let j = Rng.int master (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let db0 = Sqldb.open_db loader ~dir:"/db" in
  exec db0 "CREATE TABLE kv (k, v)";
  Array.iter
    (fun i -> exec db0 (Printf.sprintf "INSERT INTO kv VALUES ('%s', '%s')" (key i) reference.(i)))
    order;
  Sqldb.checkpoint db0;
  Sqldb.close db0;
  (* the enclave: create through VeilS-ENC, redirect syscalls via ocalls *)
  let proc = Kern.spawn kernel in
  let binary = Rng.bytes master 16384 in
  let rt =
    match
      Span.wrap tr Span.k_rt_create (fun () -> Rt.create sys ~heap_pages:24 ~stack_pages:4 ~binary proc)
    with
    | Ok rt -> rt
    | Error e -> failwith ("enclave-sql: enclave create: " ^ e)
  in
  let page_io = ref 0 in
  let env =
    {
      Env.sys =
        (fun s a ->
          (match s with S.Pread64 | S.Pwrite64 -> incr page_io | _ -> ());
          if tr.Span.on then Span.wrap tr Span.k_ocall (fun () -> Rt.ocall rt s a) else Rt.ocall rt s a);
      compute = (fun n -> Rt.compute rt n);
      env_rng = Rng.split master;
      env_rings = false;
    }
  in
  let db = Rt.run rt (fun _ -> Sqldb.open_db env ~dir:"/db") in
  { sys; rt; db; reference; page_io }

let run cfg tr r =
  let master = Rng.create cfg.H.seed in
  let st = H.first_setup cfg tr r (fun () -> setup cfg tr master) in
  let rng = Rng.split master in
  (* this period's kinds, reshuffled at each period start *)
  let plan = Array.init period (fun i -> if i < selects then 0 else if i < period - 1 then 1 else 2) in
  let shuffle () =
    for i = period - 2 downto 1 do
      let j = Rng.int rng (i + 1) in
      let t = plan.(i) in
      plan.(i) <- plan.(j);
      plan.(j) <- t
    done
  in
  let nkeys = Array.length st.reference in
  let per_batch = if cfg.H.small then 64 else 512 in
  let sim_batches = if cfg.H.small then 2 else 16 in
  let block_batches = if cfg.H.small then 1 else 16 in
  let vcpu = st.sys.B.vcpu in
  let host = Samples.create () and sim = Samples.create () in
  let per_kind = Array.init 3 (fun _ -> Samples.create ()) in
  let in_sim = ref true in
  let op_id = ref 0 in
  let errors = ref 0 in
  let op () =
    let n = !op_id in
    incr op_id;
    if n mod period = 0 then shuffle ();
    let kind = plan.(n mod period) in
    let ki = Rng.int rng nkeys in
    let stmt, v =
      if kind = 0 then (Printf.sprintf "SELECT v FROM kv WHERE k = '%s'" (key ki), "")
      else
        let v = value rng in
        (Printf.sprintf "INSERT INTO kv VALUES ('%s', '%s')" (key ki) v, v)
    in
    Span.set_op tr n;
    let c0 = V.rdtsc vcpu in
    let t0 = Clock.now_ns () in
    Span.enter tr Span.k_op;
    let res =
      if tr.Span.on then Span.wrap tr Span.k_exec (fun () -> Sqldb.exec st.db stmt)
      else Sqldb.exec st.db stmt
    in
    if kind = 2 then Span.wrap tr Span.k_checkpoint (fun () -> Sqldb.checkpoint st.db);
    Span.leave tr;
    let t1 = Clock.now_ns () in
    let c1 = V.rdtsc vcpu in
    if not tr.Span.on then Samples.push host (t1 - t0);
    if !in_sim then begin
      Samples.push sim (c1 - c0);
      Samples.push per_kind.(kind) (c1 - c0)
    end;
    let ok =
      match (kind, res) with
      | 0, Ok (Sqldb.Rows [ [ got ] ]) ->
          let want = st.reference.(ki) in
          got = if H.corrupted cfg "sql-reference" then want ^ "x" else want
      | (1 | 2), Ok Sqldb.Done ->
          st.reference.(ki) <- v;
          true
      | _ -> false
    in
    if not ok then begin
      incr errors;
      H.mismatch r ~ops:1 (Printf.sprintf "enclave-sql: %s on %s returned a wrong result" kind_names.(kind) (key ki))
    end
  in
  let batch _ =
    let go () =
      Rt.run st.rt (fun _ ->
          for _ = 1 to per_batch do
            op ()
          done)
    in
    if tr.Span.on then H.with_traced_hooks tr st.sys.B.kernel go else go ();
    per_batch
  in
  let check b =
    let degraded = Veil_core.Encsvc.degraded st.sys.B.enc in
    if degraded <> H.corrupted cfg "encsvc-degraded" then
      H.mismatch r ~ops:per_batch (Printf.sprintf "enclave-sql: batch %d: VeilS-ENC degraded" b)
  in
  (* a copy: the live stats record is mutable *)
  let rt_stats () =
    let s = Rt.stats st.rt in
    { s with Rt.ocalls = s.Rt.ocalls }
  in
  let before = H.snapshot st.sys in
  let rs0 = rt_stats () in
  let cyc0 = Sevsnp.Cycles.total vcpu.V.counter in
  let io0 = !(st.page_io) in
  let after = ref before and rs1 = ref rs0 and cyc1 = ref cyc0 and io1 = ref io0 in
  let sim_end () =
    in_sim := false;
    after := H.snapshot st.sys;
    rs1 := rt_stats ();
    cyc1 := Sevsnp.Cycles.total vcpu.V.counter;
    io1 := !(st.page_io)
  in
  let ph = H.drive r cfg tr ~sim_batches ~block_batches ~host ~batch ~check ~sim_end in
  H.report_host r cfg ph;
  let sim_ops = Samples.count sim in
  H.set r "sim_ops_per_s" ~n:sim_ops ~note:"statements / VCPU cycles"
    (float_of_int sim_ops /. Sevsnp.Cycles.seconds_of_cycles (!cyc1 - cyc0));
  H.report_sim_ops r sim;
  H.report_layers r ~before ~after:!after ~ops:sim_ops;
  H.set r "guest_kernel.errors" (float_of_int !errors);
  let d f = H.per (f !rs1 - f rs0) sim_ops in
  H.set r "enclave_sdk.ocalls_per_op" (d (fun s -> s.Rt.ocalls));
  H.set r "enclave_sdk.redirect_bytes_per_op" (d (fun s -> s.Rt.redirect_bytes));
  H.set r "enclave_sdk.redirect_cycles_per_op" (d (fun s -> s.Rt.redirect_cycles));
  H.set r "enclave_sdk.exit_cycles_per_op" (d (fun s -> s.Rt.exit_cycles));
  H.report_span r tr ~total:true "enclave_sdk.ocall_ns_p50" Span.k_ocall;
  H.set r "workloads.page_io_per_op" (H.per (!io1 - io0) sim_ops);
  H.report_span r tr "workloads.exec_self_ns_p50" Span.k_exec;
  H.report_span r tr "veil_core.pt_sync_hook_ns_p50" Span.k_hook_pt_sync;
  H.report_kinds r ~names:kind_names ~per_kind ~sim
