(** Open-loop traffic generation for Veil-Fleet.

    An open-loop generator decides arrival instants *without looking
    at the system*: requests keep coming while earlier ones queue,
    which is what exposes tail latency a closed-loop client silently
    omits (coordinated omission — the waiting client stops offering
    load exactly when the system is slow).

    The models draw from a caller-supplied [Veil_crypto.Rng.t]; the
    fleet gives them the [Rng.Arrivals] stream of its seed. *)

type process =
  | Poisson of { rate : float }
      (** Memoryless arrivals at [rate] requests/second (exponential
          inter-arrival gaps). *)
  | Mmpp of { low : float; high : float; dwell_low : float; dwell_high : float }
      (** 2-state Markov-modulated Poisson process — bursty traffic.
          Rates in requests/second; expected state dwell times in
          seconds.  Starts in the low state. *)

val mean_rate : process -> float
(** Long-run offered load in requests/second (MMPP: dwell-weighted). *)

type t

val make : Veil_crypto.Rng.t -> process -> t
(** An arrival stream drawing its gaps from the given generator. *)

val next_gap : t -> int
(** Cycles until the next arrival (>= 0). *)

val pareto_size : Veil_crypto.Rng.t -> xm:int -> alpha:float -> cap:int -> int
(** Heavy-tailed request size: truncated Pareto on [[xm, cap]] with
    shape [alpha] (smaller = heavier tail). *)
