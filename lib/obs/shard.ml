(* Per-domain shards, the one pattern behind every metric, the profiler,
   the ledger and the flight recorder. A domain's first [get] creates its
   private shard and registers it, so writers store into their own shard
   without locks; readers fold over every registered shard. Registration
   is a compare-and-set push, and shards of finished domains stay
   registered, keeping their contribution. *)

type 'a t = { key : 'a Domain.DLS.key; registered : 'a list Atomic.t }

let make fresh =
  let registered = Atomic.make [] in
  let rec push s =
    let l = Atomic.get registered in
    if not (Atomic.compare_and_set registered l (s :: l)) then push s
  in
  let key =
    Domain.DLS.new_key (fun () ->
        let s = fresh () in
        push s;
        s)
  in
  { key; registered }

let get t = Domain.DLS.get t.key
let all t = Atomic.get t.registered
