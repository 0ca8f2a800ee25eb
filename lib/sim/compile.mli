(** Threaded-code compilation of the functional executors.

    The interpreted executors ({!Block_exec.step}, {!Conv_exec.step})
    dispatch on instruction structure and build four register-file
    partial applications per operation — that dispatch and allocation is
    essentially the whole cost of functional simulation.  This module
    removes it: each verified block (and each conventional basic region)
    is closed, once per program, into a chain of specialized OCaml
    closures with opcodes, operand {e indices}, literals and fault slots
    baked in.  Steady-state execution walks the chain by tail calls and
    allocates only the per-step record the timing model consumes.

    {2 Equivalence by construction}

    A compiled executor does not carry its own state: {!Block.bind} /
    {!Conv.bind} attach the closure chains to an existing
    {!Block_exec.t} / {!Conv_exec.t} record and mutate exactly the same
    registers, memory, counters and output sink the interpreter would.
    Checkpoints taken under either backend therefore restore under the
    other, counters and outputs agree bit-for-bit, and the differential
    oracle ({!Bisa_check}) can compare the two backends step by step.
    Machine traps ([Wild_jump], [Unaligned_access]) compile to the same
    architected clean halts — never OCaml exceptions — and {!Runaway} /
    {!Illegal_fetch} are raised at the interpreter's exact program
    points.

    {2 Witness-gated compilation}

    {!Block.compile} / {!Conv.compile} accept only the [private] witness
    types of {!Bisa_verify.Verify}: an unverified program cannot be
    compiled without going through the verifier or the explicitly-named
    [_trusted] escape hatch (mirroring {!Bisa_timing.Predecode}).  The
    trusted path stays exactly equivalent even on class-malformed
    programs: any operand whose register class contradicts the
    operation's semantics compiles to a fallback closure that reproduces
    the interpreter's register-file exception verbatim. *)

type backend = Interp | Compiled
(** Which functional executor an artifact is prepared with.  Production
    always uses [Compiled]; [Interp] names the interpreter reference leg
    and survives as a field of the daemon's wire format. *)

module Block : sig
  type code
  (** Immutable per-program closure chains.  Compiled once, shareable
      across bindings and worker domains (the {!Bisa_experiments}
      harness memoizes one per program). *)

  val compile : Bisa_verify.Verify.verified_block_prog -> code
  val compile_trusted : Bisa_isa.Block_prog.t -> code
  val prog : code -> Bisa_isa.Block_prog.t

  type t
  (** [code] bound to one executor's architectural state. *)

  val bind : code -> Block_exec.t -> t
  (** Raises [Invalid_argument] unless the executor wraps the program
      the code was compiled from. *)

  val exec : t -> Block_exec.t
  (** The underlying state — output, counters, traps, save/load all go
      through the ordinary {!Block_exec} accessors. *)

  val step : ?fetch:int -> t -> Block_exec.step option
  (** Drop-in replacement for {!Block_exec.step}: same step records,
      same traps, same exceptions, same state evolution. *)

  val step_into : fetch:int -> t -> int
  (** Zero-allocation [step], the block pipeline's drain: the same state
      evolution, but the step lands in mutable fields read through the
      [last_*] accessors instead of a fresh record.  Returns
      [-1] exactly where [step] returns [None], [0] for a committed
      block, [1] for a fault squash.  Results are valid until the next
      call; [last_addrs] slots of non-memory ops carry stale values, so
      consumers must gate address reads on the predecoded memory kind
      (the engine does). *)

  val last_block : t -> int
  val last_ops : t -> int
  (** [ops_executed] of the last [step_into] (body elements only). *)

  val last_addrs : t -> int array

  val last_dir : t -> int
  (** Trap direction of the last committed [step_into]:
      [-1] none / [0] not taken / [1] taken. *)

  val run : ?budget:int -> code -> Output.t * int
  (** Canonical execution to halt on a fresh state; returns output and
      retired op count (mirrors {!Block_exec.run}). *)
end

module Conv : sig
  type code

  val compile : Bisa_verify.Verify.verified_conv_prog -> code
  val compile_trusted : Bisa_isa.Conv_prog.t -> code
  val prog : code -> Bisa_isa.Conv_prog.t

  type t

  val bind : code -> Conv_exec.t -> t
  val exec : t -> Conv_exec.t

  val step : t -> Conv_exec.packet option
  (** Drop-in replacement for {!Conv_exec.step}.  Packets carry fresh
      [mem_addrs] arrays (the conventional pipeline's stream retains
      packets across steps). *)

  val step_into : t -> bool
  (** Zero-allocation [step], the conventional pipeline's drain when it
      has no trace cache and no buffered packet: the same state
      evolution, but the packet lands in mutable fields read through the
      [last_*] accessors instead of a fresh record.  Returns [false]
      exactly where [step] returns [None].  Results —
      including the scratch [last_addrs] array — are only valid until
      the next call. *)

  val last_start : t -> int
  val last_count : t -> int
  val last_term : t -> Conv_exec.term_kind
  val last_next : t -> int
  val last_addrs : t -> int array

  val run : ?budget:int -> code -> Output.t * int
  (** Mirrors {!Conv_exec.run}: returns output and dynamic instruction
      count.  Runs on packet-free chains that the timing pipelines never
      use, so the first [run] of a code value builds them and caches them
      in it; concurrent first runs from several domains are safe. *)
end
