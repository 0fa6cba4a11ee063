(* SplitMix64 (Steele, Lea & Flood, OOPSLA 2014).  The state lives in
   an 8-byte buffer accessed through the unboxed bytes primitives, so
   advancing it never boxes an int64. *)

type t = bytes

external get64 : bytes -> int -> int64 = "%caml_bytes_get64u"
external set64 : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden = 0x9E3779B97F4A7C15L
let m1 = 0xBF58476D1CE4E5B9L
let m2 = 0x94D049BB133111EBL

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) m1 in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) m2 in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let s = Int64.add (get64 t 0) golden in
  set64 t 0 s;
  mix s

let next64 t = next t

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.shift_right_logical (next t) 2) mod bound

let bytes t n = Bytes.init n (fun _ -> Char.unsafe_chr (int t 256))

(* 53 bits plus one, over 2^53 + 1: never 0, always below 1. *)
let unit_float t =
  float_of_int (Int64.to_int (Int64.shift_right_logical (next t) 11) + 1) /. 9007199254740993.0

let split t = of_state (mix (next t))

type domain =
  | Fault_plan
  | Interleave
  | Arrivals
  | Content
  | Server
  | Client
  | Workload_input
  | Guest of int
  | Trial of { trial : int; slot : int }

let tag = function
  | Fault_plan -> 1
  | Interleave -> 2
  | Arrivals -> 3
  | Content -> 4
  | Server -> 5
  | Client -> 6
  | Workload_input -> 7
  | Guest id -> 8 + (id lsl 4)
  | Trial { trial; slot } -> 9 + (((trial lsl 8) lor slot) lsl 4)

(* [mix] on OCaml's 63-bit ints: each step (xor with a right shift,
   multiply by an odd constant) is a bijection modulo 2^63, so distinct
   tags give distinct seeds under every input seed. *)
let mix_int z =
  let z = (z lxor (z lsr 30)) * Int64.to_int m1 in
  let z = (z lxor (z lsr 27)) * Int64.to_int m2 in
  z lxor (z lsr 31)

let derive seed ~domain = mix_int (mix_int seed + (tag domain * Int64.to_int golden))
