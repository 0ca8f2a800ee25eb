(* The bisad request engine: every request the daemon serves lands here,
   against a content-addressed artifact cache.

   Four cache layers, each a Bisa_base.Memo (exactly-once under
   concurrency: one requester computes, the rest block on the entry; a
   failure is never cached), all keyed by content, never by name:

     - compiled MiniC     keyed by the source hash
     - program hashes     keyed by the program's origin (source hash, or
                          a Cell's workload and scale) and ISA, so a
                          result hit never re-encodes the program
     - prepared artifacts keyed by (program hash, exec backend) — the
                          Pipeline.Artifact bundle: verified witness,
                          predecode tables, optional threaded code
     - finished results   keyed by program hash x Config.fingerprint x
                          exec backend x request shape (mode, out_cap),
                          FIFO-capped at [result_cap] filled entries

   One compute path: a Simulate or Cell miss is a suspended run.  The
   server loop steps it in bounded slices ([start]/[step_job]); [handle]
   builds the very same run and finishes it at once inside the result
   memo.  Trust is decided once, at artifact preparation
   ([Pipeline.prepare] runs the verifier); replays are pure, which is
   what makes the result cache sound.  Finished results are additionally
   spooled to disk through Atomic_file, so a SIGKILL loses only
   in-flight requests: the next start reloads every finished response
   byte-identically. *)

module Pool = Bisa_base.Pool
module Memo = Bisa_base.Memo
module Diag = Bisa_base.Diag
module Codec = Bisa_base.Codec
module Pipeline = Bisa_timing.Pipeline
module Metrics = Bisa_timing.Metrics
module Proto = Bisa_proto.Proto

let component = "bisad"

(* --- cached result payloads -------------------------------------------- *)

(* What a finished simulation stores: the exact strings the one-shot CLI
   would print, plus the structured bits responses are rendered from.
   [show_output] is deliberately not part of the cache key — rendering
   happens per request from the stored fields. *)
type payload =
  | Fun_r of { out : string; ops : int; ret : int; notes : string }
  | Tim_r of { out : string; summary : string }
  | Cell_r of { summary : string }

type entry = { prog_hash : int64; payload : payload }

(* Spooled-entry file format (one atomically-written file per result). *)
let spool_magic = "BISARESP"
let spool_version = 1

let write_entry key (e : entry) =
  let w = Codec.W.create () in
  Codec.W.string w spool_magic;
  Codec.W.int w spool_version;
  Codec.W.string w key;
  Codec.W.i64 w e.prog_hash;
  (match e.payload with
  | Fun_r { out; ops; ret; notes } ->
    Codec.W.int w 0;
    Codec.W.string w out;
    Codec.W.int w ops;
    Codec.W.int w ret;
    Codec.W.string w notes
  | Tim_r { out; summary } ->
    Codec.W.int w 1;
    Codec.W.string w out;
    Codec.W.string w summary
  | Cell_r { summary } ->
    Codec.W.int w 2;
    Codec.W.string w summary);
  Codec.W.contents w

let read_entry s =
  let r = Codec.R.of_string s in
  if Codec.R.string r <> spool_magic then
    Diag.fail ~component "not a spooled result";
  let v = Codec.R.int r in
  if v <> spool_version then
    Diag.fail ~component "spooled result has version %d (expected %d)" v
      spool_version;
  let key = Codec.R.string r in
  let prog_hash = Codec.R.i64 r in
  let payload =
    match Codec.R.int r with
    | 0 ->
      let out = Codec.R.string r in
      let ops = Codec.R.int r in
      let ret = Codec.R.int r in
      let notes = Codec.R.string r in
      Fun_r { out; ops; ret; notes }
    | 1 ->
      let out = Codec.R.string r in
      let summary = Codec.R.string r in
      Tim_r { out; summary }
    | 2 -> Cell_r { summary = Codec.R.string r }
    | n -> Diag.fail ~component "unknown spooled payload tag %d" n
  in
  (key, { prog_hash; payload })

type t = {
  pool : Pool.t;
  spool_dir : string option;
  lock : Mutex.t;  (* guards the counters, never a computation *)
  compiled : (int64, Bisa_compiler.Compiler.compiled) Memo.t;
  bench_compiled : (string, Bisa_compiler.Compiler.compiled) Memo.t;
  prog_hashes : (string, int64) Memo.t;
  conv_arts : (int64 * Bisa_sim.Compile.backend, Pipeline.Conv.artifact) Memo.t;
  block_arts : (int64 * Bisa_sim.Compile.backend, Pipeline.Block.artifact) Memo.t;
  results : (string, entry) Memo.t;
  mutable served : int;
  mutable sim_hits : int;
  mutable sim_misses : int;
  mutable spooled : int;
  mutable spool_skipped : int;
  mutable inflight_peak : int;
  mutable probe : unit -> Bisa_obs.Probe.t option;
  log : Diag.t -> unit;
}

let count t ~cached =
  Mutex.lock t.lock;
  if cached then t.sim_hits <- t.sim_hits + 1 else t.sim_misses <- t.sim_misses + 1;
  Mutex.unlock t.lock

(* --- construction and the spool ----------------------------------------- *)

let mkdir_p path =
  if not (Sys.file_exists path) then
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let spool_path dir key = Filename.concat dir (Codec.hash_hex key ^ ".resp")

(* Write a freshly computed result to the spool.  The write is atomic,
   so a kill at any instant leaves either the whole file or nothing. *)
let spool t key entry =
  match t.spool_dir with
  | None -> ()
  | Some dir ->
    Bisa_base.Atomic_file.write_string (spool_path dir key) (write_entry key entry);
    Mutex.lock t.lock;
    t.spooled <- t.spooled + 1;
    Mutex.unlock t.lock

let load_spool t dir =
  mkdir_p dir;
  let files = Sys.readdir dir in
  Array.sort compare files;
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".resp" then begin
        let path = Filename.concat dir f in
        match
          let ic = open_in_bin path in
          let s = really_input_string ic (in_channel_length ic) in
          close_in ic;
          read_entry s
        with
        | key, entry -> if Memo.insert t.results key entry then t.spooled <- t.spooled + 1
        | exception e ->
          (* A foreign, stale or externally-corrupted file; atomic writes
             mean it cannot be a torn one of ours.  Skip it, but loudly:
             the count surfaces in Stats and each file gets one
             structured diagnostic, so spool damage is never silent. *)
          t.spool_skipped <- t.spool_skipped + 1;
          let why =
            match e with
            | Diag.Fail d -> d.Diag.message
            | Sys_error m -> m
            | e -> Printexc.to_string e
          in
          t.log
            (Diag.error ~component
               (Printf.sprintf "spool: skipped unreadable entry %s: %s" path why))
      end)
    files

let create ?(pool = Pool.sequential) ?spool_dir ?(result_cap = 4096)
    ?(log = fun (_ : Diag.t) -> ()) () =
  let t =
    {
      pool;
      spool_dir;
      lock = Mutex.create ();
      compiled = Memo.create ();
      bench_compiled = Memo.create ();
      prog_hashes = Memo.create ();
      conv_arts = Memo.create ();
      block_arts = Memo.create ();
      results = Memo.create ~cap:result_cap ();
      served = 0;
      sim_hits = 0;
      sim_misses = 0;
      spooled = 0;
      spool_skipped = 0;
      inflight_peak = 0;
      probe = (fun () -> None);
      log;
    }
  in
  Option.iter (load_spool t) spool_dir;
  t

let set_probe_hook t hook = t.probe <- hook

let note_inflight t n =
  Mutex.lock t.lock;
  if n > t.inflight_peak then t.inflight_peak <- n;
  Mutex.unlock t.lock

(* Peak resident set, straight from the kernel's accounting. *)
let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec go () =
      match input_line ic with
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then begin
          close_in ic;
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        end
        else go ()
      | exception End_of_file ->
        close_in ic;
        0
    in
    go ()

let stats t : Proto.stats =
  let artifacts = Memo.length t.conv_arts + Memo.length t.block_arts in
  let results = Memo.length t.results in
  Mutex.lock t.lock;
  let s =
    {
      Proto.served = t.served;
      sim_hits = t.sim_hits;
      sim_misses = t.sim_misses;
      artifacts;
      results;
      spooled = t.spooled;
      spool_skipped = t.spool_skipped;
      inflight_peak = t.inflight_peak;
      rss_kb = vm_hwm_kb ();
    }
  in
  Mutex.unlock t.lock;
  s

(* --- program loading ----------------------------------------------------- *)

let src_hash = function
  | Proto.Source { src; libs } ->
    Codec.fnv1a64 (String.concat "\x00" (("src:" ^ src) :: libs))
  | Proto.Conv_bin b -> Codec.fnv1a64 ("cbin:" ^ b)
  | Proto.Block_bin b -> Codec.fnv1a64 ("bbin:" ^ b)

let compile_source t ~src ~libs =
  Memo.find_or_compute t.compiled (src_hash (Proto.Source { src; libs })) (fun () ->
      Bisa_compiler.Compiler.compile ~library_funcs:libs src)

let conv_prog t (src : Proto.prog_src) =
  match src with
  | Proto.Source { src; libs } -> (compile_source t ~src ~libs).conv
  | Proto.Conv_bin b -> Bisa_isa.Encode.conv_of_bytes b
  | Proto.Block_bin _ ->
    Diag.fail ~component "this request needs a conventional executable, got a \
                          block-structured binary"

let block_prog t (src : Proto.prog_src) =
  match src with
  | Proto.Source { src; libs } -> (compile_source t ~src ~libs).block
  | Proto.Block_bin b -> Bisa_isa.Encode.block_of_bytes b
  | Proto.Conv_bin _ ->
    Diag.fail ~component "this request needs a block-structured executable, got \
                          a conventional binary"

(* A program's content hash, computed once per [origin] (where the
   program came from) and ISA: a result-cache hit costs hashing the
   request plus table lookups, never re-encoding the program.  [prog] is
   forced only on the first request from an origin; a failure to load
   it (a compile error, a malformed binary) is not cached. *)
let prog_hash (type p a) t
    (module P : Pipeline.S with type prog = p and type artifact = a) ~origin
    (prog : p Lazy.t) =
  Memo.find_or_compute t.prog_hashes (origin ^ "/" ^ P.isa) (fun () ->
      P.prog_hash (Lazy.force prog))

(* Artifact preparation is the trust boundary: [prepare] verifies, and
   the memo makes that a per-(program, backend) one-time event for every
   program that passes.  A rejection is not cached: a bad program costs
   one verification per request, and holds no memory afterwards. *)
let conv_artifact t ~exec ~prog_hash prog =
  Memo.find_or_compute t.conv_arts (prog_hash, exec) (fun () ->
      Pipeline.Conv.prepare ~exec prog)

let block_artifact t ~exec ~prog_hash prog =
  Memo.find_or_compute t.block_arts (prog_hash, exec) (fun () ->
      Pipeline.Block.prepare ~exec prog)

(* --- verification ------------------------------------------------------- *)

let reject what diags =
  let summary =
    Diag.error ~component
      (Printf.sprintf "verification rejected %s (%d diagnostic%s)" what
         (List.length diags)
         (if List.length diags = 1 then "" else "s"))
  in
  raise (Diag.Fail summary)

(* --- the result cache ---------------------------------------------------- *)

let exec_name = function
  | Bisa_sim.Compile.Interp -> "interp"
  | Bisa_sim.Compile.Compiled -> "compiled"

(* The serving cache key (DESIGN.md section 16): program content hash x
   configuration fingerprint x exec backend x request shape.  The exec
   backend is in the key even though the backends are differentially
   proven equivalent — the daemon caches rendered bytes, and equivalence
   is a property we re-check in tests, not one the cache assumes. *)
let sim_key ~what ~isa ~prog_hash ~cfg ~exec ~mode ~out_cap =
  Printf.sprintf "%s|%s|%016Lx|%016Lx|%s|%s|%s" what isa prog_hash
    (Bisa_timing.Config.fingerprint cfg)
    (exec_name exec)
    (match mode with Proto.Timing -> "timing" | Proto.Functional -> "functional")
    (match out_cap with None -> "full" | Some n -> string_of_int n)

(* --- the one compute path ------------------------------------------------ *)

module type FUNC_EXEC = sig
  type t

  val create : unit -> t
  val set_budget : t -> int -> unit
  val set_out_cap : t -> int -> unit
  val output : t -> Bisa_sim.Output.t
  val ops : t -> int
  val trap : t -> Diag.t option

  val stepper : Bisa_sim.Compile.backend -> t -> unit -> bool
  (** One fetch-unit step under the chosen backend; [false] once halted. *)
end

let func_conv prog : (module FUNC_EXEC) =
  (module struct
    module E = Bisa_sim.Conv_exec

    type t = E.t

    let create () = E.create prog
    let set_budget = E.set_budget
    let set_out_cap = E.set_out_cap
    let output = E.output
    let ops = E.dyn_insns
    let trap e = Option.map E.machine_trap_diag (E.machine_trap e)

    let stepper exec e =
      match exec with
      | Bisa_sim.Compile.Interp -> fun () -> E.step e <> None
      | Bisa_sim.Compile.Compiled ->
        let module C = Bisa_sim.Compile.Conv in
        let ce = C.bind (C.compile_trusted prog) e in
        fun () -> C.step ce <> None
  end)

let func_block prog : (module FUNC_EXEC) =
  (module struct
    module E = Bisa_sim.Block_exec

    type t = E.t

    let create () = E.create prog
    let set_budget = E.set_budget
    let set_out_cap = E.set_out_cap
    let output = E.output
    let ops = E.retired_ops
    let trap e = Option.map E.machine_trap_diag (E.machine_trap e)

    let stepper exec e =
      match exec with
      | Bisa_sim.Compile.Interp -> fun () -> E.step e <> None
      | Bisa_sim.Compile.Compiled ->
        let module C = Bisa_sim.Compile.Block in
        let ce = C.bind (C.compile_trusted prog) e in
        fun () -> C.step ce <> None
  end)

(* A simulation built but not yet finished.  [step n] retires up to [n]
   more dynamic operations and says whether the machine halted;
   [finish] runs whatever is left at once and returns the entry to
   cache.  The server loop slices a run; [handle] only finishes it. *)
type run = { step : int -> bool; finish : unit -> entry; ops : unit -> int }

let functional_run (module E : FUNC_EXEC) ~exec ~budget ~out_cap ~prog_hash =
  let e = E.create () in
  E.set_budget e budget;
  Option.iter (E.set_out_cap e) out_cap;
  let step = E.stepper exec e in
  (* A halted machine steps as a no-op, so [finish] after the last slice
     only seals. *)
  let rec go target = if step () then E.ops e < target && go target else true in
  {
    step = (fun n -> go (E.ops e + n));
    finish =
      (fun () ->
        ignore (go max_int);
        let out = E.output e in
        let notes = match E.trap e with None -> "" | Some d -> Diag.render d ^ "\n" in
        {
          prog_hash;
          payload =
            Fun_r
              {
                out = Bisa_sim.Output.to_string out;
                ops = E.ops e;
                ret = out.Bisa_sim.Output.ret;
                notes;
              };
        });
    ops = (fun () -> E.ops e);
  }

(* A timing run finishes through [P.finish], the same call
   [P.run_artifact] makes, so an unsliced run costs what it always did. *)
let timing_run (type p a) t
    (module P : Pipeline.S with type prog = p and type artifact = a) ~config ~out_cap
    (art : a) ~seal =
  let session = P.session_artifact ?probe:(t.probe ()) config art in
  Option.iter (P.set_out_cap session) out_cap;
  let rec go target =
    if P.step session then P.ops session < target && go target else true
  in
  {
    step = (fun n -> go (P.ops session + n));
    finish = (fun () -> seal (P.finish session));
    ops = (fun () -> P.ops session);
  }

(* A [Simulate] or [Cell] request resolved to its result-cache key: how
   to render a cached entry, and how to build the run on a miss.
   Building may fail (a verification rejection) as well as running. *)
type plan = {
  key : string;
  render : cached:bool -> entry -> Proto.response;
  build : unit -> run;
}

let render_sim ~show_output ~cached ~prog_hash = function
  | Fun_r { out; ops; ret; notes } ->
    Proto.Sim
      {
        stdout = Proto.render_functional ~show_output ~out ~ops ~ret;
        notes;
        prog_hash;
        cached;
      }
  | Tim_r { out; summary } ->
    Proto.Sim
      {
        stdout = Proto.render_timing ~show_output ~out ~summary;
        notes = "";
        prog_hash;
        cached;
      }
  | Cell_r _ -> assert false

let plan_simulate (type p a) t
    (module P : Pipeline.S with type prog = p and type artifact = a)
    ~(artifact : exec:Bisa_sim.Compile.backend -> prog_hash:int64 -> p -> a)
    ~(functional : p -> (module FUNC_EXEC)) (src : Proto.prog_src)
    (prog : p Lazy.t) ~mode ~exec ~(cfg : Proto.sim_cfg) ~show_output =
  let prog_hash =
    prog_hash t (module P) ~origin:(Printf.sprintf "src:%016Lx" (src_hash src)) prog
  in
  let config = Proto.to_config cfg in
  let build () =
    let prog = Lazy.force prog in
    match mode with
    | Proto.Functional ->
      (* The functional path has no artifact to hide behind, so
         verification is discharged explicitly, exactly as the one-shot
         CLI does before running. *)
      (match P.verify prog with [] -> () | ds -> reject "program" ds);
      functional_run (functional prog) ~exec ~budget:cfg.budget ~out_cap:cfg.out_cap
        ~prog_hash
    | Proto.Timing ->
      let art = artifact ~exec ~prog_hash prog in
      timing_run t (module P) ~config ~out_cap:cfg.out_cap art ~seal:(fun (m, out) ->
          {
            prog_hash;
            payload =
              Tim_r
                {
                  out = Bisa_sim.Output.to_string out;
                  summary = Metrics.summary ~name:P.descr m;
                };
          })
  in
  {
    key =
      sim_key ~what:"sim" ~isa:P.isa ~prog_hash ~cfg:config ~exec ~mode
        ~out_cap:cfg.out_cap;
    render =
      (fun ~cached e -> render_sim ~show_output ~cached ~prog_hash:e.prog_hash e.payload);
    build;
  }

let bench_key ~bench ~scale =
  bench ^ "@" ^ (match scale with None -> "default" | Some n -> string_of_int n)

let plan_cell t ~bench ~scale ~isa ~exec ~(cfg : Proto.sim_cfg) =
  let w =
    match Bisa_workloads.Workloads.find bench with
    | w -> w
    | exception Invalid_argument _ ->
      Diag.fail ~component "no such workload: %s (workloads: %s)" bench
        (String.concat " " Bisa_workloads.Workloads.names)
  in
  let what = bench_key ~bench ~scale in
  let compiled =
    lazy
      (Memo.find_or_compute t.bench_compiled what (fun () ->
           match scale with
           | Some scale -> Bisa_workloads.Workloads.compile ~scale w
           | None -> Bisa_workloads.Workloads.compile w))
  in
  let config = Proto.to_config cfg in
  let plan (type p a) (module P : Pipeline.S with type prog = p and type artifact = a)
      ~(artifact : exec:Bisa_sim.Compile.backend -> prog_hash:int64 -> p -> a)
      (prog : p Lazy.t) =
    let prog_hash = prog_hash t (module P) ~origin:("cell:" ^ what) prog in
    {
      key =
        sim_key ~what ~isa:P.isa ~prog_hash ~cfg:config ~exec ~mode:Proto.Timing
          ~out_cap:cfg.out_cap;
      render =
        (fun ~cached e ->
          match e.payload with
          | Cell_r { summary } ->
            Proto.Cell_done { summary; prog_hash = e.prog_hash; cached }
          | Fun_r _ | Tim_r _ ->
            Diag.fail ~component "cell cache entry has a simulate payload (key clash)");
      build =
        (fun () ->
          let art = artifact ~exec ~prog_hash (Lazy.force prog) in
          timing_run t (module P) ~config ~out_cap:cfg.out_cap art ~seal:(fun (m, _out) ->
              {
                prog_hash;
                payload =
                  Cell_r { summary = Metrics.summary ~name:(bench ^ "/" ^ P.isa) m };
              }));
    }
  in
  match isa with
  | Proto.Conv ->
    plan (module Pipeline.Conv) ~artifact:(conv_artifact t) (lazy (Lazy.force compiled).conv)
  | Proto.Block ->
    plan (module Pipeline.Block) ~artifact:(block_artifact t)
      (lazy (Lazy.force compiled).block)

let plan t (req : Proto.request) =
  match req with
  | Proto.Simulate { src; isa = Proto.Conv; mode; exec; cfg; show_output } ->
    plan_simulate t
      (module Pipeline.Conv)
      ~artifact:(conv_artifact t) ~functional:func_conv src
      (lazy (conv_prog t src)) ~mode ~exec ~cfg ~show_output
  | Proto.Simulate { src; isa = Proto.Block; mode; exec; cfg; show_output } ->
    plan_simulate t
      (module Pipeline.Block)
      ~artifact:(block_artifact t) ~functional:func_block src
      (lazy (block_prog t src)) ~mode ~exec ~cfg ~show_output
  | Proto.Cell { bench; scale; isa; exec; cfg } -> plan_cell t ~bench ~scale ~isa ~exec ~cfg
  | _ -> invalid_arg "Engine.plan: not a Simulate or Cell request"

(* The run driven to completion inside the result memo: concurrent
   identical requests (a [Batch] across the pool) collapse onto one
   computation, and a failure caches nothing. *)
let complete t p =
  let fresh = ref false in
  let entry =
    Memo.find_or_compute t.results p.key (fun () ->
        fresh := true;
        (p.build ()).finish ())
  in
  if !fresh then spool t p.key entry;
  count t ~cached:(not !fresh);
  p.render ~cached:(not !fresh) entry

(* --- request handlers ---------------------------------------------------- *)

(* Every failure a request can legitimately produce becomes a structured
   Err response; the connection (and the daemon) survives. *)
let err_of_exn : exn -> Proto.response option = function
  | Bisa_compiler.Compiler.Compile_error d -> Some (Proto.Err [ d ])
  | Bisa_isa.Encode.Malformed d -> Some (Proto.Err [ d ])
  | Diag.Fail d -> Some (Proto.Err [ d ])
  | Bisa_sim.Conv_exec.Runaway n ->
    Some (Proto.Err [ Bisa_sim.Conv_exec.runaway_diag n ])
  | Bisa_sim.Block_exec.Runaway n ->
    Some (Proto.Err [ Bisa_sim.Block_exec.runaway_diag n ])
  | Bisa_sim.Block_exec.Illegal_fetch { required; requested } ->
    Some (Proto.Err [ Bisa_sim.Block_exec.illegal_fetch_diag ~required ~requested ])
  | Bisa_sim.Memory.Unaligned a ->
    Some
      (Proto.Err
         [ Diag.error ~component (Printf.sprintf "unaligned memory access at 0x%x" a) ])
  | Sys_error msg -> Some (Proto.Err [ Diag.error ~component msg ])
  | _ -> None

let guard f =
  match f () with
  | resp -> resp
  | exception e -> (match err_of_exn e with Some r -> r | None -> raise e)

let note_served t =
  Mutex.lock t.lock;
  t.served <- t.served + 1;
  Mutex.unlock t.lock

let handle_one t (req : Proto.request) : Proto.response =
  note_served t;
  guard @@ fun () ->
  match req with
  | Proto.Ping -> Proto.Pong { server = Proto.version }
  | Proto.Stats -> Proto.Stats_r (stats t)
  | Proto.Shutdown -> Proto.Bye
  | Proto.Compile { src; isa = Proto.Conv } ->
    let p = conv_prog t src in
    let bytes = Bisa_isa.Encode.conv_to_bytes p in
    Proto.Binary { isa = Proto.Conv; bytes; prog_hash = Codec.fnv1a64 bytes }
  | Proto.Compile { src; isa = Proto.Block } ->
    let p = block_prog t src in
    let bytes = Bisa_isa.Encode.block_to_bytes p in
    Proto.Binary { isa = Proto.Block; bytes; prog_hash = Codec.fnv1a64 bytes }
  | Proto.Verify { src } ->
    (* Verify every executable the source carries, like --verify-only. *)
    let diags =
      match src with
      | Proto.Source _ ->
        Pipeline.Conv.verify (conv_prog t src)
        @ Pipeline.Block.verify (block_prog t src)
      | Proto.Conv_bin _ -> Pipeline.Conv.verify (conv_prog t src)
      | Proto.Block_bin _ -> Pipeline.Block.verify (block_prog t src)
    in
    Proto.Verdict { diags }
  | Proto.Simulate _ | Proto.Cell _ -> complete t (plan t req)
  | Proto.Batch _ ->
    Diag.fail ~component "Batch must be handled by the dispatcher, not handle_one"

(* Batch requests shard across the worker pool; sub-request order is
   preserved ([Pool.map_list]'s determinism contract), so a batch
   response is byte-identical at every -j. *)
let handle t (req : Proto.request) : Proto.response =
  match req with
  | Proto.Batch reqs -> Proto.Batch_r (Pool.map_list t.pool (handle_one t) reqs)
  | req -> handle_one t req

(* --- sliced jobs: the same runs, stepped by the server loop -------------- *)

(* A run the server loop advances in bounded slices between select
   rounds, so one paper-scale request never monopolizes the daemon.
   [seal] finishes the halted run, caches, spools and renders it: the
   bytes [handle] would have produced, since both render the same entry
   the same plan builds.  Abandoning a job is just dropping it — the
   suspended run holds no lock, no memo entry and no spool state. *)
type job = { run : run; seal : unit -> Proto.response }
type started = Done of Proto.response | Job of job

let job_ops j = j.run.ops ()

(* [start] is what the server loop calls instead of [handle]: the
   long-running request shapes come back as suspendable jobs, everything
   else (and every failure while building the job — a compile error, a
   verification rejection, an unknown workload) is answered on the
   spot.  A [Batch] is still scheduled as one synchronous unit across
   the worker pool; its sub-requests are not sliced. *)
let start t (req : Proto.request) : started =
  match req with
  | Proto.Simulate _ | Proto.Cell _ -> (
    note_served t;
    match
      let p = plan t req in
      match Memo.find t.results p.key with
      | Some entry ->
        count t ~cached:true;
        Done (p.render ~cached:true entry)
      | None ->
        let run = p.build () in
        Job
          {
            run;
            seal =
              (fun () ->
                let entry = run.finish () in
                (* A [Batch] may have filled the key meanwhile; both
                   computed the same pure replay, so nothing is lost. *)
                if Memo.insert t.results p.key entry then spool t p.key entry;
                count t ~cached:false;
                p.render ~cached:false entry);
          }
    with
    | started -> started
    | exception e -> (
      match err_of_exn e with Some r -> Done r | None -> raise e))
  | req -> Done (handle t req)

(* Advance one bounded slice.  A mid-flight failure (an op-budget runaway,
   a machine trap the executor surfaces as an exception) seals the job
   with a structured [Err] and caches nothing — the same outcome
   [handle] produces. *)
let step_job job ~slice_ops : [ `More | `Done of Proto.response ] =
  match if job.run.step slice_ops then `Done (job.seal ()) else `More with
  | r -> r
  | exception e -> (match err_of_exn e with Some r -> `Done r | None -> raise e)
