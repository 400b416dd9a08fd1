(* Process-wide counters, sharded per domain: a bump is a plain int store
   into the calling domain's shard, and the total is the sum of the
   shards. Addition commutes, so the value is independent of how Pool
   distributed the work, and snapshots are bit-identical at any RON_JOBS. *)

type t = { name : string; shards : int ref Shard.t }
type Registry.metric += Counter of t

let make name =
  match
    Registry.declare name (fun () -> Counter { name; shards = Shard.make (fun () -> ref 0) })
  with
  | Counter t -> t
  | _ -> Registry.clash "Counter" name

let name t = t.name

let incr t =
  let s = Domain.DLS.get t.shards.Shard.key in
  s := !s + 1

let add t by =
  let s = Domain.DLS.get t.shards.Shard.key in
  s := !s + by

let value t = List.fold_left (fun a s -> a + !s) 0 (Shard.all t.shards)
let reset t = List.iter (fun s -> s := 0) (Shard.all t.shards)
let all () = List.filter_map (function Counter t -> Some t | _ -> None) (Registry.all ())
