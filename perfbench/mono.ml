(* Monotonic time in seconds. [Openivm_obs.Clock.now] reads
   [Unix.gettimeofday], which steps with the wall clock; every duration
   the benchmark reports is read here instead. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
