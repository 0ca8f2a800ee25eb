(** The bisad request engine: typed {!Bisa_proto.Proto.request} values in,
    typed responses out, against a content-addressed artifact cache.

    Four cache layers, each a {!Bisa_base.Memo} (exactly-once fill; a
    failure is never cached), all keyed by content, never by name:
    compiled MiniC by source hash; program hashes by the program's
    origin (source hash, or a [Cell]'s workload and scale) and ISA, so a
    result hit never re-encodes the program; prepared
    {!Bisa_timing.Pipeline.S.Artifact} bundles by (program hash, exec
    backend); finished results by program hash x
    {!Bisa_timing.Config.fingerprint} x exec backend x request shape.
    Trust is decided once, at artifact preparation — replays are pure,
    which is what makes the result cache sound.

    One compute path: a [Simulate] or [Cell] miss is a suspended run,
    which {!handle} finishes at once and the server loop advances in
    bounded slices ({!start}, {!step_job}).  Both render the same
    bytes.

    With a spool directory, every finished result is also written to disk
    through {!Bisa_base.Atomic_file}, and reloaded on the next [create]:
    a SIGKILL loses only in-flight requests, never a finished byte. *)

type t

val create :
  ?pool:Bisa_base.Pool.t ->
  ?spool_dir:string ->
  ?result_cap:int ->
  ?log:(Bisa_base.Diag.t -> unit) ->
  unit ->
  t
(** [pool] shards [Batch] requests (default sequential).  [spool_dir] is
    created if missing and scanned for previously spooled results;
    unreadable entries are skipped, counted in {!stats}'s
    [spool_skipped], and each reported once through [log] (default:
    silently dropped).  [result_cap] (default 4096) bounds the in-memory
    result cache; eviction is FIFO in fill order, and evicted entries
    remain on the spool. *)

val handle : t -> Bisa_proto.Proto.request -> Bisa_proto.Proto.response
(** Serve one request.  Never raises: every failure — compile error,
    malformed binary, verification rejection, runaway, bad workload
    name — returns [Err diags] and caches nothing.  A [Simulate] or
    [Cell] miss builds the same run {!start} would and finishes it
    inside the result memo, so identical concurrent requests compute
    once.  [Batch] shards across the pool with submission-order
    results, so batch responses are byte-identical at every worker
    count.  [Shutdown] returns [Bye]; acting on it is the server loop's
    job. *)

(** {1 Sliced jobs}

    The cooperative form of [Simulate] and [Cell]: the server loop
    advances a suspended simulation in bounded operation slices between
    select rounds, so one paper-scale request never monopolizes the
    daemon.  A job is the very run {!handle} would finish at once:
    sealed jobs land in the same result cache and render the same
    bytes.  Abandoning a job is just dropping it; it holds no lock,
    cache entry or spool state. *)

type job

type started = Done of Bisa_proto.Proto.response | Job of job

val start : t -> Bisa_proto.Proto.request -> started
(** Like {!handle}, but [Simulate] and [Cell] misses come back as
    suspendable jobs (cache hits, and every failure during job
    construction, are answered on the spot).  [Batch] remains one
    synchronous unit across the worker pool — its sub-requests are not
    sliced.  Never raises. *)

val step_job : job -> slice_ops:int -> [ `More | `Done of Bisa_proto.Proto.response ]
(** Retire up to [slice_ops] more dynamic operations.  On completion the
    result is cached, spooled and rendered; a mid-flight failure (an
    op-budget runaway, a machine trap) seals the job with a structured
    [Err] and caches nothing.  Never raises; must not be called again
    after [`Done]. *)

val job_ops : job -> int
(** Dynamic operations retired so far, for deadline-expiry reporting. *)

val stats : t -> Bisa_proto.Proto.stats

val set_probe_hook : t -> (unit -> Bisa_obs.Probe.t option) -> unit
(** Called once per timing simulation this engine runs; a [Some probe]
    return is attached to that run only (session-scoped — it never leaks
    into another request's simulation, and cached replays never fire
    it). *)

val note_inflight : t -> int -> unit
(** Record an observed in-flight queue depth (the server loop calls this;
    the peak is reported in {!stats}). *)

val vm_hwm_kb : unit -> int
(** Peak resident set size of this process in KB, from
    [/proc/self/status]; 0 where unavailable. *)
