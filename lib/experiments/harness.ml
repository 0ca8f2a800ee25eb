module Workloads = Bisa_workloads.Workloads
module Config = Bisa_timing.Config
module Cache = Bisa_uarch.Cache
module Pool = Bisa_base.Pool
module Memo = Bisa_base.Memo

let verbose = ref false

(* One mutex for all progress lines so interleaved domain logs stay
   line-atomic. *)
let log_lock = Mutex.create ()

let log fmt =
  Printf.ksprintf
    (fun s ->
      if !verbose then begin
        Mutex.lock log_lock;
        Printf.eprintf "%s\n%!" s;
        Mutex.unlock log_lock
      end)
    fmt

(* Split [xs] into consecutive groups of [n] (the grid results of one
   benchmark); the length must divide evenly. *)
let chunks n xs =
  if n <= 0 then invalid_arg "Harness.chunks: group size must be positive";
  let rec take k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | x :: rest -> take (k - 1) (x :: acc) rest
    | [] -> invalid_arg "Harness.chunks: ragged grid"
  in
  let rec go = function
    | [] -> []
    | xs ->
      let group, rest = take n [] xs in
      group :: go rest
  in
  go xs

type t = {
  scale : int option;
  campaign : Campaign.t option;
  base : Config.t;
  sweep : (string * Cache.config) list;
  pool : Pool.t;
  compiled_cache : (string, Bisa_compiler.Compiler.compiled) Memo.t;
  (* Keyed by workload, ISA and [Config.fingerprint]: configurations that
     differ in any timing field are distinct cells. *)
  run_cache : (string * string * int64, Bisa_timing.Metrics.t) Memo.t;
  (* Prepared artifacts (verified program + predecode tables + threaded
     code + content hash): one per program, shared by every grid
     configuration and worker domain that simulates it, so preparation —
     verify, predecode, trusted compile, an O(program) hash — runs once,
     not once per grid cell. *)
  art_conv_cache : (string, Bisa_timing.Pipeline.Conv.artifact) Memo.t;
  art_block_cache : (string, Bisa_timing.Pipeline.Block.artifact) Memo.t;
  mutable on_compute : string -> unit;
}

let scaled_default = { Cache.size_bytes = Cache.kb 16; assoc = 4; line_bytes = 32 }

let create ?scale ?(paper_caches = false) ?(pool = Pool.sequential) ?campaign () =
  let default_icache, sweep =
    if paper_caches then
      ( Cache.config_64k,
        [ ("16KB", Cache.config_16k); ("32KB", Cache.config_32k); ("64KB", Cache.config_64k) ] )
    else
      ( scaled_default,
        [
          ("4KB", { Cache.size_bytes = Cache.kb 4; assoc = 4; line_bytes = 32 });
          ("8KB", { Cache.size_bytes = Cache.kb 8; assoc = 4; line_bytes = 32 });
          ("16KB", scaled_default);
        ] )
  in
  {
    scale;
    campaign;
    base = Config.with_icache (Some default_icache) Config.default;
    sweep;
    pool;
    compiled_cache = Memo.create ();
    run_cache = Memo.create ();
    art_conv_cache = Memo.create ();
    art_block_cache = Memo.create ();
    on_compute = ignore;
  }

let base_config t = t.base
let campaign t = t.campaign
let sweep_caches t = t.sweep
let benchmarks _ = Workloads.all
let pool t = t.pool
let set_compute_hook t hook = t.on_compute <- hook

(* The hook fires inside the computation the memo runs exactly once, so
   it fires exactly once per distinct key. *)
let memoize t memo key ~label ~compute =
  Memo.find_or_compute memo key (fun () ->
      t.on_compute label;
      compute ())

let compiled t (w : Workloads.t) =
  memoize t t.compiled_cache w.name ~label:("compile:" ^ w.name) ~compute:(fun () ->
      log "[compile] %s" w.name;
      match t.scale with
      | Some scale -> Workloads.compile ~scale w
      | None -> Workloads.compile w)

(* The artifact memo is the trust boundary: [prepare] verifies before it
   predecodes and compiles to threaded code.  This is the single value
   every timing run, campaign cell and checkpoint consumes. *)
let artifact_conv t (w : Workloads.t) =
  memoize t t.art_conv_cache w.name
    ~label:("artifact:" ^ w.name ^ "/" ^ Bisa_timing.Pipeline.Conv.isa)
    ~compute:(fun () -> Bisa_timing.Pipeline.Conv.prepare (compiled t w).conv)

let artifact_block t (w : Workloads.t) =
  memoize t t.art_block_cache w.name
    ~label:("artifact:" ^ w.name ^ "/" ^ Bisa_timing.Pipeline.Block.isa)
    ~compute:(fun () -> Bisa_timing.Pipeline.Block.prepare (compiled t w).block)

let run t (w : Workloads.t) (cfg : Config.t) ~isa ~f =
  let key = (w.name, isa, Config.fingerprint cfg) in
  memoize t t.run_cache key
    ~label:(Printf.sprintf "run:%s/%s" w.name isa)
    ~compute:(fun () ->
      log "[run] %s/%s icache=%s pred=%s" w.name isa
        (match cfg.icache with
        | Some c -> string_of_int (c.size_bytes / 1024) ^ "KB"
        | None -> "perfect")
        (match cfg.predictor with Config.Real -> "real" | Config.Perfect -> "perfect");
      f (compiled t w))

(* Both ISAs run through the one [Pipeline.S] contract; only the artifact
   memo differs per instantiation.  With a campaign attached, every cell
   goes through its crash-safe path: finished cells are read back from
   their manifests, interrupted ones resume from their snapshots. *)
let run_pipe (type p a) t
    (module P : Bisa_timing.Pipeline.S with type prog = p and type artifact = a)
    ~(artifact : Workloads.t -> a) (w : Workloads.t) cfg =
  run t w cfg ~isa:P.isa ~f:(fun _cm ->
      let art = artifact w in
      match t.campaign with
      | Some camp -> Campaign.run_cell camp (module P) ~bench:w.name cfg art
      | None -> fst (P.run_artifact cfg art))

let run_conv t w cfg =
  run_pipe t (module Bisa_timing.Pipeline.Conv) ~artifact:(artifact_conv t) w cfg

let run_block t w cfg =
  run_pipe t (module Bisa_timing.Pipeline.Block) ~artifact:(artifact_block t) w cfg
