(* Host monotonic clock in nanoseconds (CLOCK_MONOTONIC, no allocation). *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_between t0 t1 = float_of_int (t1 - t0) /. 1e9
