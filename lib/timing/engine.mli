(** Shared out-of-order dataflow core used by both pipelines.

    Models the HPS-style execution substrate: dynamic register renaming is
    captured by tracking, per architectural register, the completion time
    of its latest writer (renaming removes all anti/output dependencies, so
    only true dependencies constrain issue); sixteen uniform functional
    units impose structural limits via a per-cycle issue calendar; loads
    and stores are ordered through a per-address store-completion map with
    store-to-load forwarding; the 32-block / 512-op instruction window
    back-pressures dispatch; blocks retire in order.

    A {e unit} is one fetch packet (a dynamic basic block, or an atomic
    block), described as a slot range of a {!Predecode.t} template table
    plus the step's memory addresses.  The walk consumes the pre-scheduled
    schedule facts ([info]/[use_def]/[def_next]/[mem_prefix]) directly:
    operand spans, latencies, intra-unit dependency offsets and the
    unit's memory shape were all resolved at predecode time, so the hot
    path recomputes nothing and allocates nothing per dynamic operation.
    Executing a unit with [commit = false] charges its resource usage and
    computes its resolve time but discards its register and memory
    effects — this is how fault-suppressed blocks cost real bandwidth
    (paper section 5: "good work must be removed from the machine for a
    fault misprediction"). *)

type t

val create : Config.t -> t
val dcache : t -> Bisa_uarch.Cache.t option

val release : t -> unit
(** Hand the engine's issue calendar and store map to the calling
    domain, whose next {!create} resets and reuses them instead of
    allocating fresh ones in the major heap.  Call once the run is over
    and its results are read; the engine must not be used afterwards.
    Idempotent. *)

val admit : t -> want:int -> op_count:int -> int
(** Window admission: earliest dispatch cycle at or after [want] with room
    for [op_count] more operations. *)

val run_unit :
  t ->
  dispatch:int ->
  commit:bool ->
  Predecode.t ->
  lo:int ->
  len:int ->
  term:int ->
  mem_addrs:int array ->
  mem_off:int ->
  unit
(** Issues template slots [lo, lo+len)] — plus the trailing terminator slot
    [term] when [term >= 0] (an atomic block whose body was not squashed;
    a terminator's in-flight producers are confined to the executed body
    slots) — when their operands and a functional unit are ready; the k-th
    body op's memory address is [mem_addrs.(mem_off + k)] (negative = no
    access; the terminator never accesses memory).  When committing,
    publishes register and store results.  Also books the unit into the
    retirement window.  The resolve/retire times are left in mutable
    result fields read by {!unit_resolve} / {!unit_retire}, so the
    steady-state loop allocates nothing. *)

val unit_resolve : t -> int
(** Completion time of the last operation of the most recent unit. *)

val unit_retire : t -> int
(** Retirement of the most recent unit (monotonic, in order). *)

val last_retire : t -> int
(** Retirement time of the youngest unit so far = total cycles when done. *)

val occupancy : t -> int
(** Operations currently booked in the instruction window (post-{!admit}
    drain) — the observability layer's pipeline-occupancy signal. *)

val save : t -> Bisa_base.Codec.W.t -> unit
val load : t -> Bisa_base.Codec.R.t -> unit
(** Checkpoint/restore all cross-unit timing state (register-ready times,
    issue calendar, store map, retirement window, data cache).  Per-unit
    scratch is reset by [load]; the restored engine must have the same
    configuration. *)
