(** The one JSON codec: every machine-readable document the simulator
    writes (metrics, Chrome traces, chaos/explore/fleet reports, pulse
    series, bench records) is built as a {!t} and printed here, and
    every document it reads back (the [bench --baseline] gate, tests)
    is parsed here.

    Printing is compact (no whitespace).  Strings escape ['"'], ['\\'],
    newline and tab by name and every other byte below 0x20 as
    [\u00XX]; all other bytes pass through.  Numbers print in the three
    formats the documents use: [Int] as a decimal integer, [Float] with
    [%g], [Fixed (n, v)] with [%.nf]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** printed with [%g] *)
  | Fixed of int * float  (** [Fixed (n, v)] prints [v] with [n] decimals *)
  | String of string
  | List of t list
  | Obj of (string * t) list  (** fields print in list order *)

val to_buffer : Buffer.t -> t -> unit
val to_string : t -> string

val parse : string -> (t, string) result
(** Parse one JSON document (surrounding whitespace allowed).  Never
    raises: malformed input, trailing garbage and nesting deeper than
    512 levels are [Error] with the byte offset.  Numbers without a
    fraction or exponent that fit an [int] come back as [Int], all
    others as [Float]; [Fixed] is never produced.  [\uXXXX] escapes
    decode to UTF-8; surrogate escapes are rejected. *)

val member : string -> t -> t option
(** The first field named [key] of an [Obj]; [None] otherwise. *)

val number : t -> float option
(** [Int], [Float] and [Fixed] as a float; [None] otherwise. *)
