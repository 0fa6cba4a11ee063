(** The simulator's one pseudo-random generator: SplitMix64, seedable
    and splittable, so a whole-system run replays from one seed.  Not
    cryptographically secure; the simulated platform only needs
    determinism.  Advancing the state allocates nothing; [next64] and
    [unit_float] box only their result when called from another
    module. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. *)

val next64 : t -> int64
(** Next 64 pseudo-random bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). [bound] must be positive. *)

val bytes : t -> int -> bytes
(** [bytes t n] is [n] pseudo-random bytes. *)

val unit_float : t -> float
(** Uniform in (0, 1) from the top 53 bits of one draw; never 0, so
    [log (unit_float t)] is finite. *)

val split : t -> t
(** Derive an independent generator (for sub-components). *)

(** Consumers that share one operator seed take separate streams,
    [create (derive seed ~domain)], one domain each.  Under a fixed
    seed distinct domains get distinct derived seeds, and SplitMix
    streams from distinct states never agree at the same position, so
    e.g. a hostile hypervisor's faults and its schedule are two
    independent coins by construction. *)
type domain =
  | Fault_plan  (** [Chaos.Fault_plan]'s fire decisions and fault payloads *)
  | Interleave  (** [Hv.Interleave.Seeded]'s starting VCPU per step *)
  | Arrivals  (** [Fleet]'s open-loop gaps, under the operator seed *)
  | Content  (** a fleet guest's request content, under its guest seed *)
  | Server  (** a fleet guest's server [env_rng], under its guest seed *)
  | Client  (** a fleet guest's load-generator [env_rng], ditto *)
  | Workload_input  (** a chaos trial's input bytes, under the trial seed *)
  | Guest of int  (** fleet guest [id]'s boot seed, under the operator seed *)
  | Trial of { trial : int; slot : int }
      (** the plan seed of chaos workload [slot] (< 256; 99 = attack
          sweep) in round [trial], under the top-level seed *)

val derive : int -> domain:domain -> int
(** Bijective in the tag for a fixed seed: distinct domains never share
    a derived seed (ids and trials below 2^50). *)
