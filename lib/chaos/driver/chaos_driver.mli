(** Veil-Chaos trial driver (ISSUE 4).

    Runs the paper's workloads — boot, the E4 syscall bench, a shielded
    enclave, VeilS-LOG, and attested Veil-Pulse telemetry export — on
    freshly booted guests with a seeded
    {!Chaos.Fault_plan} armed on the platform, and classifies each
    trial against the two robustness invariants:

    + every Table 1/2 security outcome stays [Blocked_*] under any
      fault plan (no [Breached]);
    + guest-visible results are either correct or an explicit
      degraded/refused error — never silent corruption, and never a
      hang (the plan's step budget acts as the watchdog).

    Everything is derived from one integer seed, so a failing trial is
    reproduced exactly by re-running with the seed the driver printed. *)

type workload_kind = Wl_boot | Wl_syscall | Wl_enclave | Wl_slog | Wl_pulse

val all_workloads : workload_kind list
val workload_name : workload_kind -> string
val workload_of_name : string -> workload_kind option

(** How a trial ended.  [Passed], [Degraded] and [Halted] satisfy
    invariant (2) — the guest saw a correct result, an explicit
    degraded/refused error, or an explicit halt.  The rest are
    violations: [Watchdog] is a detected hang, [Corrupt] a silently
    wrong guest-visible result, [Crashed] an unclassified exception
    escaping the simulator. *)
type outcome = Chaos_outcome.t =
  | Passed
  | Degraded of string
  | Halted of string
  | Watchdog of string
  | Corrupt of string
  | Crashed of string

val outcome_ok : outcome -> bool
val outcome_to_string : outcome -> string

type trial = {
  tr_workload : workload_kind;
  tr_seed : int;  (** the effective fault-plan seed — replay with this *)
  tr_outcome : outcome;
  tr_steps : int;  (** world exits consumed by the trial *)
  tr_hits : (string * int) list;  (** site name -> injections fired *)
  tr_plan : Chaos.Fault_plan.t;  (** the spent plan (journal inside) *)
}

val make_plan : ?sites:Chaos.Fault_plan.site list -> seed:int -> unit -> Chaos.Fault_plan.t
(** A trial plan: the selected sites (default: all 12) armed at the
    driver's default per-site probabilities, watchdog budget set. *)

val run_workload :
  ?sites:Chaos.Fault_plan.site list -> ?vcpus:int -> seed:int -> workload_kind -> trial
(** One workload under one fault plan seeded with exactly [seed].
    [vcpus] (default 1) runs the syscall workload as per-VCPU workers
    under the deterministic SMP interleaver — AP bring-up then crosses
    the fault-injected monitor protocols too.  [vcpus = 1] keeps the
    pre-SMP schedule byte-for-byte. *)

val attacks_under_chaos :
  ?sites:Chaos.Fault_plan.site list -> seed:int -> unit -> (string * string) list * int
(** Run every Table 1/2/§8.3 attack with a chaos plan armed on each
    attack's freshly booted guest.  Returns the breached attacks as
    [(name, outcome)] (must be empty) and the number of attacks run. *)

type report = {
  rp_seed : int;
  rp_trials : trial list;
  rp_attacks_run : int;
  rp_breached : (string * string) list;
  rp_site_hits : (string * int) list;  (** aggregated over all plans *)
  rp_replay_ok : bool;  (** re-running trial 0 reproduced its journal *)
  rp_ok : bool;
}

val run :
  ?sites:Chaos.Fault_plan.site list ->
  ?trials:int ->
  ?workloads:workload_kind list ->
  ?check_replay:bool ->
  ?vcpus:int ->
  seed:int ->
  unit ->
  report
(** The [veilctl chaos] engine: [trials] (default 3) rounds of every
    selected workload plus the attack sweep, one derived plan each,
    followed (when [check_replay], the default) by a replay-identity
    check of the first trial.  [vcpus] is forwarded to
    {!run_workload}. *)

val report_json : report -> string
(** One JSON object with the effective seed, per-trial outcomes,
    aggregated per-site hit counts, breached-attack list and the
    replay verdict — what CI uploads as the failing-plan artifact. *)
