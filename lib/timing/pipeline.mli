(** The one interface both timing pipelines implement.

    The conventional and block-structured cores differ in program type,
    predecode table, and fetch engine, but every consumer — the experiment
    harness, [bisasim], the daemon, the fuzzers — drives them identically:
    {e prepare} a program once into an {!S.artifact} (verify, predecode,
    compile to threaded code, content-hash), then run many
    configurations against the shared bundle, with an optional
    {!Bisa_obs.Probe.t} observing pipeline events.  {!S} captures that
    contract; {!Conv} and {!Block} are the two implementations, and
    {!packed} pairs an implementation with an artifact of its own type so
    a CLI (or the daemon's cache) can select the ISA at runtime and still
    dispatch through one code path.

    Preparation is the trust boundary: {!S.prepare} statically verifies
    the program (see {!Bisa_verify.Verify}) before building tables whose
    raw indexes the engine uses unchecked.  {!S.prepare_trusted} skips
    verification for callers that own the bounds obligations (the
    [--no-verify] escape hatch, fuzzers).  All trust decisions happen at
    preparation time, so replaying an artifact is pure — the property the
    serving layer's cache is built on. *)

(** What every pipeline exposes besides its artifact layer: program
    preparation primitives and the stepping interface of a session. *)
module type CORE = sig
  type prog
  type tables

  type code
  (** Threaded-code form of a program ({!Bisa_sim.Compile}): per-block /
      per-region closure chains that replace the dispatching interpreter
      in the functional executor.  Like [tables], compiled once per
      program and shared across configurations and worker domains. *)

  val isa : string
  (** Stable short name ("conv" / "block") — used in cache keys and
      [--isa] values; never change it for a released pipeline. *)

  val descr : string
  (** Human-readable name for reports. *)

  val verify : prog -> Bisa_base.Diag.t list
  (** All static well-formedness violations; [[]] means the program may
      be predecoded and simulated. *)

  val predecode : prog -> tables
  (** Verify, then build the program's predecoded op-template tables (one
      cheap pass; memoize to share across configurations).  Raises
      {!Bisa_base.Diag.Fail} with the first diagnostic if {!verify} is
      non-empty. *)

  val predecode_trusted : prog -> tables
  (** Build tables without verifying — the caller asserts
      well-formedness. *)

  val compile : prog -> code
  (** Verify, then compile the program to threaded code (same trust
      discipline as {!predecode}).  Raises {!Bisa_base.Diag.Fail} with
      the first diagnostic if {!verify} is non-empty. *)

  val compile_trusted : prog -> code
  (** Compile without verifying — the caller asserts well-formedness
      (or has already discharged it, e.g. via {!predecode}). *)

  val prog_hash : prog -> int64
  (** Content hash of the program's canonical byte encoding — what binds
      a checkpoint snapshot (and a served artifact) to the exact program
      it was built from. *)

  type session
  (** An in-flight run, advanced one fetch unit at a time — the
      suspendable form of {!S.run_artifact} that checkpointing is built
      on. *)

  val step : session -> bool
  (** Advance by one fetch unit; false once the machine has halted.
      Checkpoints are only meaningful between [step]s. *)

  val ops : session -> int
  (** Dynamic operations executed so far (drives checkpoint cadence). *)

  val set_out_cap : session -> int -> unit
  (** Bound program-output retention: only the first [n] items are retained
      (the total count and a rolling content hash remain exact — see
      {!Bisa_sim.Output.Sink}).  This is what keeps RSS independent of
      op count on paper-scale streamed runs; [finish]'s output is then
      marked truncated. *)

  val finish : session -> Metrics.t * Bisa_sim.Output.t
  (** Run the remaining steps and seal the metrics.  [finish
      (session_artifact cfg a)] equals [run_artifact cfg a] exactly. *)

  val save : session -> Bisa_base.Codec.W.t -> unit
  val restore : session -> Bisa_base.Codec.R.t -> unit
  (** Serialize/restore all inter-step state.  [restore] requires a fresh
      session built from the same program, tables and configuration; use
      {!Checkpoint} for the validated on-disk form. *)
end

(** The per-pipeline primitives: {!CORE} plus the raw session
    constructor, which only {!Extend} calls, with an artifact's own
    tables and code. *)
module type BASE = sig
  include CORE

  val session :
    ?probe:Bisa_obs.Probe.t ->
    tables:tables ->
    code:code option ->
    Config.t ->
    prog ->
    session
end

module type S = sig
  include CORE

  type artifact
  (** A prepared program: the verified program witness, its predecode
      tables, its threaded code, and its content hash, bundled
      as one value.  Artifacts are {e derived} state — cheap to rebuild,
      deliberately absent from checkpoint snapshot identity — and they
      are what every consumer caches and replays. *)

  module Artifact : sig
    type t = artifact

    val prog : t -> prog
    val tables : t -> tables
    val code : t -> code option
    (** [None] only for the interpreter reference leg (see {!bundle}). *)

    val hash : t -> int64
  end

  val prepare : ?exec:Bisa_sim.Compile.backend -> prog -> artifact
  (** The single front door: verify the program (raising
      {!Bisa_base.Diag.Fail} with the first diagnostic on rejection),
      build its tables, compile it to threaded code, and hash its
      canonical encoding.  [exec] (default [Compiled]) survives only for
      the daemon's wire field; [Interp] leaves the code out. *)

  val prepare_trusted : ?exec:Bisa_sim.Compile.backend -> prog -> artifact
  (** [prepare] without verification — the caller asserts
      well-formedness (the [--no-verify] escape hatch, fuzzers). *)

  val bundle : ?code:code -> tables:tables -> prog -> artifact
  (** Assemble an artifact from pieces built elsewhere (e.g. the
      harness's memoized tables and code) — trust obligations stay with
      whoever built [tables].  Without [code] the artifact runs the
      dispatching interpreter: the reference leg that the differential
      oracle and the equivalence tests hold the threaded code against. *)

  val session_artifact : ?probe:Bisa_obs.Probe.t -> Config.t -> artifact -> session

  val run_artifact :
    ?probe:Bisa_obs.Probe.t ->
    ?out_cap:int ->
    Config.t ->
    artifact ->
    Metrics.t * Bisa_sim.Output.t
  (** Run the artifact under [cfg] to completion.  [out_cap] bounds
      output retention as in {!set_out_cap}.  Whether the artifact
      carries code changes only wall-clock: both executors drive the
      identical state and are differentially tested equivalent, so
      metrics, outputs and checkpoints do not depend on it — which is
      why the executor is absent from {!Config.fingerprint}. *)
end

(** Derive the artifact layer from the per-pipeline primitives (exposed
    so scenario variants outside this library can join the contract). *)
module Extend (B : BASE) :
  S
    with type prog = B.prog
     and type tables = B.tables
     and type code = B.code
     and type session = B.session

module Conv :
  S
    with type prog = Bisa_isa.Conv_prog.t
     and type tables = Predecode.t
     and type code = Bisa_sim.Compile.Conv.code

module Block :
  S
    with type prog = Bisa_isa.Block_prog.t
     and type tables = Predecode.blocks
     and type code = Bisa_sim.Compile.Block.code

type packed =
  | Packed :
      (module S with type prog = 'p and type tables = 'tb and type artifact = 'a) * 'a
      -> packed
      (** A pipeline and a prepared artifact of its program type, with
          both types hidden — what a CLI (or the daemon's artifact cache)
          holds after loading input for a user-chosen ISA. *)

val pack_conv : Bisa_isa.Conv_prog.t -> packed
(** Prepare (verifying — raises {!Bisa_base.Diag.Fail} on rejection) and
    pack. *)

val pack_block : Bisa_isa.Block_prog.t -> packed

val pack_conv_trusted : Bisa_isa.Conv_prog.t -> packed
(** Pack with an artifact built by {!S.prepare_trusted} — the
    [--no-verify] path. *)

val pack_block_trusted : Bisa_isa.Block_prog.t -> packed

val verify_packed : packed -> Bisa_base.Diag.t list
(** Run the packed program's static verifier (even if packed trusted). *)

val packed_isa : packed -> string
val packed_hash : packed -> int64
(** The artifact's identity, for cache keys and reports. *)

val run_packed :
  ?probe:Bisa_obs.Probe.t ->
  ?out_cap:int ->
  Config.t ->
  packed ->
  Metrics.t * Bisa_sim.Output.t
(** Run the packed artifact under [cfg].  [out_cap] bounds output
    retention as in {!S.set_out_cap}. *)
