let ns = Monotonic_clock.now
let[@inline] now_ns () = Int64.to_int (Monotonic_clock.now ())
let since_s t0 = float_of_int (now_ns () - t0) /. 1e9

let ticks = Atomic.make 0
let logical () = Int64.of_int (Atomic.fetch_and_add ticks 1)

(* The one injected source Trace, Profile and Telemetry stamp records
   with. Each holds it while on; the last release restores the logical
   tick, so an injected wall clock never outlives its users, and a user
   that stops early does not pull it from under one still writing. *)
type holder = int

let holders = ref 0
let held = ref 0
let source = ref logical

let holder () =
  let h = 1 lsl !holders in
  incr holders;
  h

let hold h ?source:src () =
  (match src with
  | Some c -> source := c
  | None -> if !held = 0 then Atomic.set ticks 0);
  held := !held lor h

let release h =
  held := !held land lnot h;
  if !held = 0 then source := logical

let read () = !source ()
