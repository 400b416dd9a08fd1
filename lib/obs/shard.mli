(** Per-domain shards: each domain that touches a sharded value gets a
    private shard on first use, registered for readers. Writes to one's
    own shard need no lock; a reader that runs while no writer does (a
    Pool batch has joined) sees every shard's last write. *)

type 'a t = private {
  key : 'a Domain.DLS.key;
      (** Hot paths read [Domain.DLS.get t.key] directly: under [-opaque]
          a call to {!get} from another module is not inlined. *)
  registered : 'a list Atomic.t;
}

val make : (unit -> 'a) -> 'a t
(** [make fresh]: shards created by [fresh] on each domain's first use. *)

val get : 'a t -> 'a
(** The calling domain's shard, created and registered on first use. *)

val all : 'a t -> 'a list
(** Every registered shard, newest first. *)
