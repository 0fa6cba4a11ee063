(* Open-loop arrival generation (see the .mli).  Draws come from the
   caller's [Rng.t]; the models below only shape them. *)

module C = Sevsnp.Cycles
module Rng = Veil_crypto.Rng

type process =
  | Poisson of { rate : float }
  | Mmpp of { low : float; high : float; dwell_low : float; dwell_high : float }

let mean_rate = function
  | Poisson { rate } -> rate
  | Mmpp { low; high; dwell_low; dwell_high } ->
      (* time-weighted: the process spends dwell_low in the low state
         for every dwell_high in the high state *)
      ((low *. dwell_low) +. (high *. dwell_high)) /. (dwell_low +. dwell_high)

type t = {
  rng : Rng.t;
  proc : process;
  mutable high_state : bool;
  mutable dwell_left : float; (* cycles remaining in the current MMPP state *)
}

let exp_draw rng mean = -.mean *. log (Rng.unit_float rng)

let freq = float_of_int C.freq_hz

let make rng proc =
  let t = { rng; proc; high_state = false; dwell_left = 0.0 } in
  (match proc with
  | Poisson _ -> ()
  | Mmpp { dwell_low; _ } -> t.dwell_left <- exp_draw rng (dwell_low *. freq));
  t

let rec gap_cycles t =
  match t.proc with
  | Poisson { rate } -> exp_draw t.rng (freq /. rate)
  | Mmpp m ->
      let rate = if t.high_state then m.high else m.low in
      let g = exp_draw t.rng (freq /. rate) in
      if g <= t.dwell_left then begin
        t.dwell_left <- t.dwell_left -. g;
        g
      end
      else begin
        (* the gap straddles a state change: advance to the boundary,
           flip, and redraw memorylessly under the new rate *)
        let consumed = t.dwell_left in
        t.high_state <- not t.high_state;
        let dwell_mean = if t.high_state then m.dwell_high else m.dwell_low in
        t.dwell_left <- exp_draw t.rng (dwell_mean *. freq);
        consumed +. gap_cycles t
      end

let next_gap t = max 0 (int_of_float (gap_cycles t))

let pareto_size rng ~xm ~alpha ~cap =
  let x = float_of_int xm /. (Rng.unit_float rng ** (1.0 /. alpha)) in
  if x >= float_of_int cap then cap else max xm (int_of_float x)
