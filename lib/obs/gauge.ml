(* Process-wide gauges, sharded per domain like Counter. A gauge holds a
   "current level" (cache occupancy, batch size, effective job count)
   rather than a monotone count: each domain's shard keeps the last value
   that domain wrote, and the merged reading is the sum over shards that
   have been written at all. Sum commutes, so the reading is independent
   of registration order; a gauge written only from the orchestrating
   domain reads back exactly its last write at any RON_JOBS, which is what
   deterministic snapshots rely on.

   Gauges whose value necessarily reflects the execution environment
   (effective worker count, per-domain cache occupancy summed over a
   RON_JOBS-dependent number of caches) are declared with [~env:true] and
   excluded from deterministic surfaces: [Ron_obs.snapshot] skips them,
   and [Telemetry] only emits them alongside the other process-level
   fields (GC, RSS) that are already nondeterministic. *)

type shard = { mutable v : float; mutable written : bool }
type t = { name : string; env : bool; shards : shard Shard.t }
type Registry.metric += Gauge of t

(* The [env] flag of the first declaration wins. *)
let make ?(env = false) name =
  let fresh () = Gauge { name; env; shards = Shard.make (fun () -> { v = 0.0; written = false }) } in
  match Registry.declare name fresh with Gauge t -> t | _ -> Registry.clash "Gauge" name

let name t = t.name
let env t = t.env

let set t x =
  let s = Domain.DLS.get t.shards.Shard.key in
  s.v <- x;
  s.written <- true

let set_int t i = set t (float_of_int i)

let add t by =
  let s = Domain.DLS.get t.shards.Shard.key in
  s.v <- s.v +. by;
  s.written <- true

let written t = List.exists (fun s -> s.written) (Shard.all t.shards)

let value t =
  List.fold_left (fun a s -> if s.written then a +. s.v else a) 0.0 (Shard.all t.shards)

let max_value t =
  List.fold_left
    (fun a s -> if s.written then Float.max a s.v else a)
    neg_infinity (Shard.all t.shards)

let reset t =
  List.iter
    (fun s ->
      s.v <- 0.0;
      s.written <- false)
    (Shard.all t.shards)

let all () = List.filter_map (function Gauge t -> Some t | _ -> None) (Registry.all ())

let to_json ~env =
  Json.Obj
    (List.filter_map
       (fun g ->
         if written g && (env || not g.env) then Some (g.name, Json.Float (value g)) else None)
       (all ()))
