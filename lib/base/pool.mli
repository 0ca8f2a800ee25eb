(** Fixed-size [Domain]-based worker pool with futures.

    One pool serves a whole run: the experiment grids, the fuzz
    campaigns, and the benchmark harness all share it so the machine is
    never oversubscribed.  [workers] counts the {e total} parallelism,
    including the submitting domain — a pool of size [n] spawns [n - 1]
    worker domains, and [await] lends the caller's domain to the queue
    while it waits, so nested [map_list] calls cannot deadlock and
    [~workers:1] degenerates to plain, eager, in-order sequential
    execution with no domains spawned at all.

    Determinism contract: [map_list] and [map_reduce] return results in
    submission order no matter which domain ran which item or in what
    order they finished, so any pipeline that derives per-item state
    (e.g. {!Rng.derive} seeds) from the work item itself produces
    byte-identical output at every [workers] setting. *)

type t

val default_workers : unit -> int
(** [Domain.recommended_domain_count ()], at least 1 — the [-j] default. *)

val create : ?workers:int -> unit -> t
(** [create ~workers ()] spawns [max 1 workers - 1] worker domains
    (default {!default_workers}). *)

val sequential : t
(** A shared size-1 pool: every submission runs eagerly on the caller's
    domain.  The default for library entry points, so nothing is
    parallel unless a CLI threads a real pool through. *)

val workers : t -> int
(** Total parallelism (worker domains + the caller). *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Tasks still queued are dropped
    unstarted; call only once every submitted future has been awaited.
    Idempotent. *)

val run : ?workers:int -> (t -> 'a) -> 'a
(** [run ~workers f] is [f pool] bracketed by [create]/[shutdown]. *)

(** {1 Futures} *)

type 'a future

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a task.  On a size-1 pool the task runs before [submit]
    returns.  Raises [Invalid_argument] after [shutdown]. *)

val await : 'a future -> 'a
(** Block until the task settles, re-raising (with its original
    backtrace) if it raised.  While the task is still queued, the
    awaiting domain executes other queued tasks instead of idling. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map] with results in input order.  If any item
    raises, the exception of the {e earliest} failing item is re-raised,
    and only after every item has settled (no task outlives the call). *)

val map_reduce : t -> map:('a -> 'b) -> reduce:('c -> 'b -> 'c) -> init:'c -> 'a list -> 'c
(** Parallel map, then an in-order sequential left fold — deterministic
    even when [reduce] is not commutative. *)
