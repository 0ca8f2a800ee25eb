(** A keyed table with exactly-once fill, safe to share across domains.

    The first requester of a key installs a [Busy] entry and runs the
    computation outside the table's lock; every later requester of that
    key blocks on the entry until it settles, then observes the very
    same value.  So N domains asking for one key compute it once.

    One failure policy: if the computation raises, the requesters
    already blocked on it re-raise its exception with its backtrace, and
    the key is removed — a later request computes it again.  A
    failure is never cached.

    An optional [cap] bounds the number of {e filled} entries: filling
    one past the cap evicts the oldest filled entry (FIFO in fill
    order).  A [Busy] entry is never evicted and does not count. *)

type ('k, 'v) t

val create : ?cap:int -> unit -> ('k, 'v) t
(** An empty memo; unbounded unless [cap] is given.  Raises
    [Invalid_argument] when [cap < 1].  Keys are compared with
    structural equality and hashed with [Hashtbl.hash]. *)

val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [find_or_compute t k f] is the value filled for [k], running [f ()]
    to fill it if no requester has yet: [f] runs at most once per key at
    a time, never under the table's lock, so it may itself use this or
    any other memo. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** The value filled for [k], if any.  Never blocks: an entry still
    being computed reads as absent. *)

val insert : ('k, 'v) t -> 'k -> 'v -> bool
(** Fill [k] with a value computed elsewhere.  Does nothing and returns
    [false] when [k] is already present, filled or being computed. *)

val length : ('k, 'v) t -> int
(** Entries present, filled or being computed. *)
