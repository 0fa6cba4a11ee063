(** SHA-256 (FIPS 180-4).

    Used for CVM launch measurements, enclave measurements, page
    integrity hashes and as the compression function behind [Hmac]
    and the signature stack. *)

type ctx

val init : unit -> ctx

val reset : ctx -> unit
(** Return a context to its {!init} state, so one context can hash
    message after message without allocating a new one. *)

val update : ctx -> bytes -> unit
val update_string : ctx -> string -> unit

val update_sub : ctx -> bytes -> int -> int -> unit
(** [update_sub ctx b off len] feeds [b.[off .. off+len-1]]. *)

val finalize : ctx -> bytes
(** Fresh 32-byte digest.  Pads in place inside the context's block
    buffer; the context must be {!reset} before it hashes again. *)

val chain_step : ctx -> bytes -> bytes -> int -> int -> bytes
(** [chain_step ctx prev b off len] is one hash-chain step,
    H(prev ‖ b.[off .. off+len-1]), computed on [ctx] (reset first).
    The result is a fresh 32-byte value that no later step mutates.
    VeilS-LOG, Veil-Pulse and the vTPM PCR banks all extend their
    chains with it. *)

val digest_bytes : bytes -> bytes
val digest_string : string -> bytes

val hex_of_digest : bytes -> string
(** Lowercase hex rendering of a digest (or any byte string). *)
