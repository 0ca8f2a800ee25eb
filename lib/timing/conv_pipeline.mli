(** Cycle-level timing model of the conventional-ISA core.

    Identical execution substrate to the block-structured core (16-wide,
    32-block/512-op window, 16 uniform FUs, same caches and latencies); the
    defining difference is the fetch engine: one {e basic block} per cycle
    — fetch stops at every control instruction — which is what limits the
    conventional core to ~5 useful operations per fetch (paper figure 5).

    [tables] is the program's predecoded op-template table (see
    {!Predecode.of_conv}), built once per program and shared across
    configurations. *)

(** [probe] (default {!Bisa_obs.Probe.null}) receives pipeline events —
    fetch-unit start/retire, prediction outcomes, redirects, cache/BTB and
    trace-cache activity, window occupancy.  The null probe is free: one
    physical-equality test on entry disables every emission, so the hot
    path is unchanged (checked by the allocation-budget test). *)

(** [code] (see {!Bisa_sim.Compile.Conv}) is the program's threaded-code
    executor; [None] runs the dispatching interpreter instead — the
    reference leg the differential oracle compares against.  Both drive
    the identical {!Bisa_sim.Conv_exec.t} state, so metrics, outputs and
    checkpoints are independent of the choice. *)

type session
(** An in-flight run, advanced one fetch unit at a time.  Consumers build
    one through {!Pipeline.Conv.session_artifact}, which supplies the
    program's memoized [tables] and [code]. *)

val session :
  ?probe:Bisa_obs.Probe.t ->
  tables:Predecode.t ->
  code:Bisa_sim.Compile.Conv.code option ->
  Config.t ->
  Bisa_isa.Conv_prog.t ->
  session

val step : session -> bool
(** Advance by one fetch unit (a whole served trace counts as one step);
    false once the program has halted and the stream is drained.
    Checkpoints are only meaningful between steps. *)

val ops : session -> int
val set_out_cap : session -> int -> unit
(** Dynamic instructions executed so far (drives checkpoint cadence). *)

val finish : session -> Metrics.t * Bisa_sim.Output.t
(** Run the remaining steps and seal the metrics.  The session is spent
    afterwards: its timing engine's scratch returns to the domain for the
    next session to reuse. *)

val save : session -> Bisa_base.Codec.W.t -> unit
val restore : session -> Bisa_base.Codec.R.t -> unit
(** Serialize/restore all inter-step state.  [restore] requires a fresh
    session built from the same program, tables and configuration; use
    {!Checkpoint} for the validated on-disk form. *)
