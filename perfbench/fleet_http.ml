(* fleet-http: Fleet.run with 4 guests x 4 lanes, open-loop Poisson
   http at a fixed absolute offered rate, round-robin dispatch, chaos,
   pulse and rings off.  The op is one http request; Fleet.run is a
   single call, so per-request host and simulated times are observed
   per session (one Fleet.run of [requests] arrivals): each session
   gives one sample of host us per request and of mean sojourn cycles,
   and the percentiles are taken across sessions. *)

module H = Harness
module Rng = Veil_crypto.Rng
module C = Sevsnp.Cycles

let guests = 4
let vcpus = 4

(* About 70% of fleet capacity at the calibrated mean service of
   823,359 cycles per request: 0.7 * 16 lanes * 2.4e9 / 823359.
   Fixed, never re-calibrated per run, so a faster guest shows lower
   sojourn rather than more offered load. *)
let offered_rps = 32650.0

let config ~seed ~requests =
  {
    Fleet.guests;
    vcpus;
    seed;
    requests;
    workload = Fleet.Http;
    process = Fleet.Arrival.Poisson { rate = offered_rps };
    mode = Fleet.Open_loop;
    lb = Fleet.Round_robin;
    rings = false;
    chaos = false;
    pulse = None;
    hostile = None;
    first_guest = 0;
  }

let run cfg tr r =
  let master = Rng.create cfg.H.seed in
  let requests = if cfg.H.small then 32 else 4096 in
  let sim_batches = if cfg.H.small then 2 else 4 in
  (* set-up: fleet bring-up and teardown, one request per guest *)
  H.first_setup cfg tr r (fun () ->
      ignore
        (Span.wrap tr Span.k_fleet_run (fun () ->
             Fleet.run (config ~seed:(cfg.H.seed + 1) ~requests:guests))));
  let host = Samples.create () and sim = Samples.create () in
  let last = ref None in
  let batch b =
    let seed = Rng.int master 1_000_000_000 in
    Span.set_op tr b;
    let t0 = Clock.now_ns () in
    let rep = Span.wrap tr Span.k_fleet_run (fun () -> Fleet.run (config ~seed ~requests)) in
    let t1 = Clock.now_ns () in
    if not tr.Span.on then Samples.push host ((t1 - t0) / requests);
    last := Some rep;
    requests
  in
  (* simulated-window sums, over sessions *)
  let sessions = ref 0 and wall = ref 0 and sojourn = ref 0.0 and svc = ref 0.0 in
  let ws_busy = ref 0 and ws_queued = ref 0 and offered = ref 0.0 in
  let in_sim = ref true in
  let check b =
    (* each session starts from a collected heap, as each set-up does *)
    Gc.full_major ();
    let rep = Option.get !last in
    let gs = rep.Fleet.r_guests in
    let served = Array.fold_left (fun acc g -> acc + g.Fleet.gr_requests) 0 gs in
    let want = if H.corrupted cfg "fleet-served" then requests + 1 else requests in
    if served <> want || String.length rep.Fleet.r_lb_journal <> requests then
      H.mismatch r ~ops:requests (Printf.sprintf "fleet-http: session %d served %d of %d" b served want);
    Array.iter
      (fun g ->
        let slog_ok = g.Fleet.gr_slog_ok && not (H.corrupted cfg "fleet-slog") in
        if not slog_ok then
          H.mismatch r ~ops:g.Fleet.gr_requests
            (Printf.sprintf "fleet-http: session %d guest %d: VeilS-LOG chain does not verify" b g.Fleet.gr_id);
        (* the remote user's log fetch over the attested channel
           (with its one reconnect-and-retry) must succeed *)
        let fetched = g.Fleet.gr_log_lines >= 0 && not (H.corrupted cfg "fleet-log-fetch") in
        if not fetched then
          H.mismatch r ~ops:g.Fleet.gr_requests
            (Printf.sprintf "fleet-http: session %d guest %d: log fetch failed (%d lines)" b g.Fleet.gr_id
               g.Fleet.gr_log_lines))
      gs;
    if !in_sim then begin
      incr sessions;
      Samples.push sim (int_of_float (Float.round rep.Fleet.r_mean));
      wall := !wall + rep.Fleet.r_wall_cycles;
      sojourn := !sojourn +. (rep.Fleet.r_mean *. float_of_int requests);
      offered := rep.Fleet.r_offered;
      Array.iter
        (fun g ->
          svc := !svc +. (g.Fleet.gr_mean_svc *. float_of_int g.Fleet.gr_requests);
          ws_busy := !ws_busy + g.Fleet.gr_wait.Veil_core.Monitor.ws_busy_cycles;
          ws_queued := !ws_queued + g.Fleet.gr_wait.Veil_core.Monitor.ws_queued_cycles)
        gs
    end
  in
  let sim_end () = in_sim := false in
  let ph = H.drive r cfg tr ~sim_batches ~block_batches:(if cfg.H.small then 1 else 2) ~host ~batch ~check ~sim_end in
  H.report_host r cfg ph ~per_op:"host time per request, one sample per session";
  let sim_reqs = !sessions * requests in
  let achieved = float_of_int sim_reqs /. C.seconds_of_cycles !wall in
  H.set r "sim_ops_per_s" ~n:sim_reqs ~note:"achieved requests per simulated second" achieved;
  let ns = Samples.count sim in
  H.set r "sim_op_p50_cycles" ~n:ns ~note:"mean sojourn per request, one sample per session"
    (float_of_int (Samples.percentile sim 50.0));
  H.set r "sim_op_p99_cycles" ~n:ns ~note:"mean sojourn per request, one sample per session"
    (float_of_int (Samples.percentile sim 99.0));
  H.set r "sim_sojourn_mean_cycles" ~n:sim_reqs ~note:"exact sum / count over the window"
    (!sojourn /. float_of_int sim_reqs);
  H.set r "fleet.mean_service_cycles" ~n:sim_reqs (!svc /. float_of_int sim_reqs);
  H.set r "fleet.lane_utilization" (!svc /. float_of_int (guests * vcpus * !wall));
  H.set r "fleet.achieved_over_offered" (achieved /. !offered);
  H.set r "fleet.monitor_busy_share" (float_of_int !ws_busy /. !svc);
  H.set r "veil_core.monitor_queued_cycles_per_op" (H.per !ws_queued sim_reqs);
  H.note r
    (Printf.sprintf "fixed offered rate %.0f req/s, %d requests per session, %d sessions in the simulated window"
       offered_rps requests !sessions)
