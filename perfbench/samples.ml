(* Exact sample store: a growable int array.  Percentiles are nearest
   rank over the retained samples, never bucketed. *)

type t = { mutable a : int array; mutable n : int }

let create () = { a = Array.make 1024 0; n = 0 }

let push t v =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0 in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- v;
  t.n <- t.n + 1

let count t = t.n
let clear t = t.n <- 0

let sum t =
  let s = ref 0 in
  for i = 0 to t.n - 1 do
    s := !s + t.a.(i)
  done;
  !s

let mean t = if t.n = 0 then 0.0 else float_of_int (sum t) /. float_of_int t.n

let sorted t =
  let s = Array.sub t.a 0 t.n in
  Array.sort compare s;
  s

(* Nearest rank: the smallest sample with at least p% of the samples
   at or below it.  0 when empty. *)
let rank_of ~n p = max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1))

let percentile_sorted s p =
  let n = Array.length s in
  if n = 0 then 0 else s.(rank_of ~n p)

let percentile t p = percentile_sorted (sorted t) p

(* Nearest-rank percentile of a float list; 0 when empty. *)
let percentile_float l p =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else a.(rank_of ~n p)

let median_float l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
