(* Differential oracle: one program, five independent executions, one
   answer.  The reference interpreter fixes the expected output; every
   engine (functional executors and cycle-level pipelines for both ISAs)
   must reproduce it exactly, and the two ISAs' final data segments must
   match word-for-word.  Any disagreement — including an engine raising —
   is a finding, which the fuzzer then shrinks to a minimal program. *)

module Compiler = Bisa_compiler.Compiler
module Output = Bisa_sim.Output
module Interp = Bisa_frontend.Interp
module Conv_exec = Bisa_sim.Conv_exec
module Block_exec = Bisa_sim.Block_exec

(* Generated programs execute a few thousand operations; these bounds are
   three orders of magnitude above that, so hitting one is always a bug
   (runaway codegen or a stuck executor), never a slow program. *)
let interp_fuel = 2_000_000
let exec_budget = 50_000_000

type engine = { name : string; run : Compiler.compiled -> Output.t }

let output_of_interp (r : Interp.result) : Output.t =
  {
    ret = r.ret;
    items =
      List.map
        (function
          | Interp.Oint i -> Output.Oint i
          | Interp.Oflt f -> Output.Oflt f)
        r.outputs;
  }

let timing_cfg ?inject () =
  {
    Bisa_timing.Config.default with
    op_budget = exec_budget;
    (* Exercise the trace-cache front end too — it re-sequences fetch. *)
    trace_cache = Some Bisa_uarch.Trace_cache.default_config;
    inject;
  }

module Conv = Bisa_timing.Pipeline.Conv
module Block = Bisa_timing.Pipeline.Block

let conv_timing art = snd (Conv.run_artifact (timing_cfg ()) art)
let block_timing art = snd (Block.run_artifact (timing_cfg ()) art)

(* The interpreter legs: the functional interpreters, plus both timing
   pipelines over code-less artifacts — the reference the threaded code
   is held against. *)
let default_engines () =
  [
    {
      name = "conv";
      run = (fun c -> fst (Conv_exec.run c.Compiler.conv ~budget:exec_budget ()));
    };
    {
      name = "block";
      run = (fun c -> fst (Block_exec.run c.Compiler.block ~budget:exec_budget ()));
    };
    {
      name = "conv-timing";
      run =
        (fun c ->
          let prog = c.Compiler.conv in
          conv_timing (Conv.bundle ~tables:(Conv.predecode prog) prog));
    };
    {
      name = "block-timing";
      run =
        (fun c ->
          let prog = c.Compiler.block in
          block_timing (Block.bundle ~tables:(Block.predecode prog) prog));
    };
  ]

(* The threaded-code legs: the compiled functional executors, plus both
   timing pipelines over fully prepared artifacts.  The compiles go
   through the verifier ([compile] / [prepare]), so the witness
   discipline is exercised on every generated program too. *)
let compiled_legs () =
  [
    {
      name = "conv-compiled";
      run =
        (fun c ->
          fst (Bisa_sim.Compile.Conv.run ~budget:exec_budget (Conv.compile c.Compiler.conv)));
    };
    {
      name = "block-compiled";
      run =
        (fun c ->
          fst (Bisa_sim.Compile.Block.run ~budget:exec_budget (Block.compile c.Compiler.block)));
    };
    { name = "conv-timing-compiled"; run = (fun c -> conv_timing (Conv.prepare c.Compiler.conv)) };
    {
      name = "block-timing-compiled";
      run = (fun c -> block_timing (Block.prepare c.Compiler.block));
    };
  ]

let compiled_engines () = default_engines () @ compiled_legs ()

(* Lockstep replay of interpreter vs. compiled executor: two fresh states
   over the same program, advanced one step at a time, comparing every
   step record (including mem_addrs slots and raised exceptions).  On the
   first differing step this pinpoints the divergent fetch-unit index and
   the dynamic-op count reached — far tighter than an end-of-run output
   mismatch. *)
let first_divergence (c : Compiler.compiled) =
  let show_exn = Printexc.to_string in
  let conv () =
    let a = Conv_exec.create c.Compiler.conv in
    let b = Conv_exec.create c.Compiler.conv in
    Conv_exec.set_budget a exec_budget;
    Conv_exec.set_budget b exec_budget;
    let cb = Bisa_sim.Compile.Conv.bind (Conv.compile c.Compiler.conv) b in
    let rec go i =
      let pa = try Ok (Conv_exec.step a) with e -> Error (show_exn e) in
      let pb = try Ok (Bisa_sim.Compile.Conv.step cb) with e -> Error (show_exn e) in
      if pa <> pb then
        Some
          (Printf.sprintf
             "conv: backends diverge at packet %d (interp at dyn op %d, compiled at %d)"
             i (Conv_exec.dyn_insns a) (Conv_exec.dyn_insns b))
      else
        match pa with
        | Ok (Some _) -> go (i + 1)
        | Ok None | Error _ ->
          if Conv_exec.machine_trap a <> Conv_exec.machine_trap b then
            Some (Printf.sprintf "conv: machine traps differ after packet %d" i)
          else None
    in
    go 0
  in
  let block () =
    let a = Block_exec.create c.Compiler.block in
    let b = Block_exec.create c.Compiler.block in
    Block_exec.set_budget a exec_budget;
    Block_exec.set_budget b exec_budget;
    let cb = Bisa_sim.Compile.Block.bind (Block.compile c.Compiler.block) b in
    let rec go i =
      let pa = try Ok (Block_exec.step a) with e -> Error (show_exn e) in
      let pb = try Ok (Bisa_sim.Compile.Block.step cb) with e -> Error (show_exn e) in
      if pa <> pb then
        Some
          (Printf.sprintf
             "block: backends diverge at fetched block %d (interp at dyn op %d, \
              compiled at %d)"
             i (Block_exec.dyn_ops a) (Block_exec.dyn_ops b))
      else
        match pa with
        | Ok (Some _) -> go (i + 1)
        | Ok None | Error _ ->
          if Block_exec.machine_trap a <> Block_exec.machine_trap b then
            Some (Printf.sprintf "block: machine traps differ after block %d" i)
          else None
    in
    go 0
  in
  match conv () with Some m -> Some m | None -> block ()

(* Replay both functional executors and compare the final data segments
   (both the integer and the float side of every word).  The linkers lay
   out globals identically for both ISAs, so a mismatch means one backend
   miscompiled a store. *)
let compare_memory (c : Compiler.compiled) =
  let conv = c.Compiler.conv and block = c.Compiler.block in
  let tc = Conv_exec.create conv in
  Conv_exec.set_budget tc exec_budget;
  while Conv_exec.step tc <> None do () done;
  let tb = Block_exec.create block in
  Block_exec.set_budget tb exec_budget;
  while Block_exec.step tb <> None do () done;
  let nc = Array.length conv.Bisa_isa.Conv_prog.data in
  let nb = Array.length block.Bisa_isa.Block_prog.data in
  let n = max nc nb in
  let cbase = conv.Bisa_isa.Conv_prog.data_base in
  let bbase = block.Bisa_isa.Block_prog.data_base in
  let rec go i =
    if i >= n then Ok ()
    else begin
      let ci = Conv_exec.read_mem tc (cbase + (8 * i)) in
      let bi = Block_exec.read_mem tb (bbase + (8 * i)) in
      if ci <> bi then
        Error (Printf.sprintf "data word %d differs: conv=%d block=%d" i ci bi)
      else begin
        let cf = Conv_exec.read_memf tc (cbase + (8 * i)) in
        let bf = Block_exec.read_memf tb (bbase + (8 * i)) in
        if Int64.bits_of_float cf <> Int64.bits_of_float bf then
          Error (Printf.sprintf "data word %d (float) differs: conv=%h block=%h" i cf bf)
        else go (i + 1)
      end
    end
  in
  go 0

type outcome =
  | Agree
  | Skipped of string  (** ill-formed program or interpreter limit — not a finding *)
  | Failed of string  (** divergence or an engine crash — a finding *)

let run_compiled ?(engines = default_engines ()) (c : Compiler.compiled) =
  match Interp.run ~fuel:interp_fuel c.Compiler.typed with
  | exception Interp.Out_of_fuel -> Skipped "reference interpreter out of fuel"
  | exception Interp.Runtime_error m -> Skipped ("reference interpreter: " ^ m)
  | r ->
    let expected = output_of_interp r in
    let rec loop = function
      | [] -> begin
        match compare_memory c with
        | Ok () -> Agree
        | Error m -> Failed ("memory side effects: " ^ m)
        | exception exn ->
          Failed ("memory side-effect replay raised " ^ Printexc.to_string exn)
      end
      | e :: rest -> begin
        match e.run c with
        | got ->
          if Output.equal expected got then loop rest
          else
            Failed
              (Printf.sprintf "engine %s diverged from interpreter: expected %s, got %s"
                 e.name (Output.to_string expected) (Output.to_string got))
        | exception exn ->
          Failed (Printf.sprintf "engine %s raised %s" e.name (Printexc.to_string exn))
      end
    in
    loop engines

let run_program ?engines p =
  match Compiler.compile (Gen.render p) with
  | exception Compiler.Compile_error d -> Skipped (Bisa_base.Diag.render d)
  | c -> run_compiled ?engines c

(* ------------------------------------------------------------------ *)
(* Fuzzing with greedy shrinking *)

type failure = {
  program : Gen.prog;
  source : string;
  reason : string;
  shrink_evals : int;  (** candidate executions spent shrinking *)
}

type report = {
  tested : int;
  skipped : int;
  skip_reasons : (string * int) list;  (** reason histogram, most frequent first *)
  failure : failure option;
}

let shrink_failing ?(max_evals = 400) ?engines p reason =
  let evals = ref 0 in
  let rec improve p reason =
    let rec cands = function
      | [] -> (p, reason)
      | c :: rest ->
        if !evals >= max_evals then (p, reason)
        else begin
          incr evals;
          match run_program ?engines c with
          | Failed r -> improve c r  (* keep any still-failing smaller program *)
          | Agree | Skipped _ -> cands rest
        end
    in
    cands (Gen.shrink p)
  in
  let p', reason' = improve p reason in
  (p', reason', !evals)

let fuzz ?(seed = 42) ?(count = 200) ?engines ?(pool = Bisa_base.Pool.sequential) () =
  (* Generation stays a single sequential pass over one stream — it is
     cheap and keeps the program sequence identical to the historical
     fixed-seed campaigns.  The expensive part, checking (five engine
     executions per program), shards across the pool.  Accounting below
     replays the outcomes in generation order, so tested/skipped counts
     and the reported failure are identical at every worker count. *)
  let rng = Bisa_base.Rng.create seed in
  let programs =
    let rec gen i acc = if i = count then List.rev acc else gen (i + 1) (Gen.generate rng :: acc) in
    gen 0 []
  in
  let outcomes = Bisa_base.Pool.map_list pool (run_program ?engines) programs in
  let tested = ref 0 and skipped = ref 0 in
  let reasons : (string, int) Hashtbl.t = Hashtbl.create 7 in
  let failure = ref None in
  (try
     List.iter2
       (fun p outcome ->
         match outcome with
         | Agree -> incr tested
         | Skipped r ->
           incr skipped;
           Hashtbl.replace reasons r (1 + Option.value ~default:0 (Hashtbl.find_opt reasons r))
         | Failed reason ->
           let p', reason', shrink_evals = shrink_failing ?engines p reason in
           failure :=
             Some { program = p'; source = Gen.render p'; reason = reason'; shrink_evals };
           raise Exit)
       programs outcomes
   with Exit -> ());
  let skip_reasons =
    Hashtbl.fold (fun r n acc -> (r, n) :: acc) reasons []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  { tested = !tested; skipped = !skipped; skip_reasons; failure = !failure }
