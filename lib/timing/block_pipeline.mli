(** Cycle-level timing model of the block-structured core.

    Fetches one atomic block per cycle.  The next-block predictor (the
    paper's modified Two-Level Adaptive predictor) selects among a block's
    enlarged successor variants; a direction-level misprediction redirects
    at trap resolution, and a variant-level misprediction surfaces as a
    {e fault squash}: the whole fetched block executes, its work is
    discarded, and fetch redirects to the fault target — the re-executed
    prefix reappears inside the sibling block, so the paper's extra fault
    penalty is modeled structurally rather than as a constant.

    Under perfect prediction the fetch engine goes straight to the variant
    whose faults do not fire, so squashes cost nothing — which is why the
    paper's block-structured advantage grows from 12% to 19-20% in
    figure 4.

    [tables] is the program's predecoded op-template table (see
    {!Predecode.of_block}), built once per program and shared across
    configurations. *)

(** [probe] (default {!Bisa_obs.Probe.null}) receives pipeline events —
    fetch-unit start/retire, prediction outcomes, redirects, fault
    squashes, cache/BTB activity, window occupancy.  The null probe is
    free: one physical-equality test on entry disables every emission, so
    the hot path is unchanged (checked by the allocation-budget test). *)

(** [code] (see {!Bisa_sim.Compile.Block}) is the program's
    threaded-code executor; [None] runs the dispatching interpreter
    instead — the reference leg the differential oracle compares against.
    Both drive the identical {!Bisa_sim.Block_exec.t} state, so metrics,
    outputs and checkpoints are independent of the choice. *)

type session
(** An in-flight run, advanced one fetched block at a time.  Consumers
    build one through {!Pipeline.Block.session_artifact}, which supplies
    the program's memoized [tables] and [code]. *)

val session :
  ?probe:Bisa_obs.Probe.t ->
  tables:Predecode.blocks ->
  code:Bisa_sim.Compile.Block.code option ->
  Config.t ->
  Bisa_isa.Block_prog.t ->
  session

val step : session -> bool
(** Advance by one fetched block; false once the machine has halted.
    Checkpoints are only meaningful between steps. *)

val ops : session -> int
val set_out_cap : session -> int -> unit
(** Dynamic operations executed so far (drives checkpoint cadence). *)

val finish : session -> Metrics.t * Bisa_sim.Output.t
(** Run the remaining steps and seal the metrics.  The session is spent
    afterwards: its timing engine's scratch returns to the domain for the
    next session to reuse. *)

val save : session -> Bisa_base.Codec.W.t -> unit
val restore : session -> Bisa_base.Codec.R.t -> unit
(** Serialize/restore all inter-step state.  [restore] requires a fresh
    session built from the same program, tables and configuration; use
    {!Checkpoint} for the validated on-disk form. *)
