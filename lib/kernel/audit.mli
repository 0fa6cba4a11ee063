(** Kaudit-style system auditing.

    Mirrors the paper's modified Linux kaudit (§9.2 CS3): records are
    kept *in memory* (the inefficient auditd user-space writer is
    bypassed), rules select which syscalls are logged, and a hook at
    [audit_log_end] — {!set_protect_hook} — lets VeilS-LOG capture
    each entry *before* the event executes (execute-ahead, §6.3). *)

type record = {
  seq : int;
  cycles : int;  (** guest TSC at emission *)
  sys : Sysno.t;
  pid : int;
  detail : string;  (** auditd-style key=value summary *)
}

val add_detail : Buffer.t -> uid:int -> euid:int -> Ktypes.arg list -> unit
(** Append a record's [detail]: [uid=U euid=E] then [ aI=ARG] per
    argument, each rendered by {!Ktypes.add_arg}.  Allocation-free into
    a buffer with room. *)

val add_line : Buffer.t -> record -> unit
(** Append the auditd-style line
    [type=SYSCALL seq=S tsc=T syscall=NAME(NR) pid=P DETAIL] — the
    bytes VeilS-LOG stores and hash-chains.  Allocation-free into a
    buffer with room. *)

val to_line : record -> string
(** {!add_line} into a fresh string. *)

type t

val create : unit -> t

val set_rules : t -> Sysno.t list -> unit
val clear_rules : t -> unit
val matches : t -> Sysno.t -> bool

val set_protect_hook : t -> (record -> unit) option -> unit
(** VeilS-LOG's execute-ahead capture; runs synchronously in
    {!emit} before the record lands in the in-kernel buffer. *)

val emit : t -> cycles:int -> sys:Sysno.t -> pid:int -> detail:string -> unit
(** Builds + stores a record when a rule matches (read them back with
    {!records}).  The caller charges the formatting cost. *)

val records : t -> record list
(** Oldest first. *)

val count : t -> int

val tamper : t -> seq:int -> detail:string -> bool
(** Overwrite a stored record in the (unprotected!) in-kernel buffer —
    the attack VeilS-LOG exists to defeat.  True when a record with
    [seq] existed. *)
