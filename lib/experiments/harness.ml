module Workloads = Bisa_workloads.Workloads
module Config = Bisa_timing.Config
module Cache = Bisa_uarch.Cache
module Pool = Bisa_base.Pool

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

type cache_key = (int * int * int) option * Config.predictor

(* A memo cell: Busy while the first requester computes; later requesters
   block on the cell's condition instead of recomputing.  An exception
   poisons the cell for every waiter. *)
type 'a cell_state = Busy | Ready of 'a | Poisoned of exn * Printexc.raw_backtrace
type 'a cell = { cm : Mutex.t; cc : Condition.t; mutable state : 'a cell_state }

type t = {
  scale : int option;
  campaign : Campaign.t option;
  base : Config.t;
  sweep : (string * Cache.config) list;
  pool : Pool.t;
  lock : Mutex.t;  (* guards all tables (not the cells' contents) *)
  compiled_cache : (string, Bisa_compiler.Compiler.compiled cell) Hashtbl.t;
  run_cache : (string * string * cache_key, Bisa_timing.Metrics.t cell) Hashtbl.t;
  (* Predecoded op-template tables: one per program, shared by every grid
     configuration and worker domain that simulates it. *)
  pre_conv_cache : (string, Bisa_timing.Predecode.t cell) Hashtbl.t;
  pre_block_cache : (string, Bisa_timing.Predecode.blocks cell) Hashtbl.t;
  (* Threaded-code forms (Compile.{Conv,Block}.code): like the predecode
     tables, one per program, shared across configurations and domains. *)
  code_conv_cache : (string, Bisa_timing.Pipeline.Conv.code cell) Hashtbl.t;
  code_block_cache : (string, Bisa_timing.Pipeline.Block.code cell) Hashtbl.t;
  (* Artifact bundles (program witness + tables + code + content hash):
     the form every timing run consumes.  Memoized so the content hash —
     an O(program) encode — is computed once, not once per grid cell. *)
  art_conv_cache : (string, Bisa_timing.Pipeline.Conv.artifact cell) Hashtbl.t;
  art_block_cache : (string, Bisa_timing.Pipeline.Block.artifact cell) Hashtbl.t;
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
    lock = Mutex.create ();
    compiled_cache = Hashtbl.create 16;
    run_cache = Hashtbl.create 64;
    pre_conv_cache = Hashtbl.create 16;
    pre_block_cache = Hashtbl.create 16;
    code_conv_cache = Hashtbl.create 16;
    code_block_cache = Hashtbl.create 16;
    art_conv_cache = Hashtbl.create 16;
    art_block_cache = Hashtbl.create 16;
    on_compute = ignore;
  }

let base_config t = t.base
let campaign t = t.campaign
let sweep_caches t = t.sweep
let benchmarks _ = Workloads.all
let pool t = t.pool
let set_compute_hook t hook = t.on_compute <- hook

let wait_cell cell =
  Mutex.lock cell.cm;
  let rec go () =
    match cell.state with
    | Busy ->
      Condition.wait cell.cc cell.cm;
      go ()
    | Ready v ->
      Mutex.unlock cell.cm;
      v
    | Poisoned (e, bt) ->
      Mutex.unlock cell.cm;
      Printexc.raise_with_backtrace e bt
  in
  go ()

let fill_cell cell state =
  Mutex.lock cell.cm;
  cell.state <- state;
  Condition.broadcast cell.cc;
  Mutex.unlock cell.cm

(* Find-or-compute with exactly-once semantics: the requester that
   installs the Busy cell computes outside [t.lock]; everyone else waits
   on the cell.  [t.on_compute label] therefore fires exactly once per
   distinct key. *)
let memoize t table key ~label ~compute =
  Mutex.lock t.lock;
  match Hashtbl.find_opt table key with
  | Some cell ->
    Mutex.unlock t.lock;
    wait_cell cell
  | None ->
    let cell = { cm = Mutex.create (); cc = Condition.create (); state = Busy } in
    Hashtbl.add table key cell;
    let hook = t.on_compute in
    Mutex.unlock t.lock;
    hook label;
    (match compute () with
    | v ->
      fill_cell cell (Ready v);
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      fill_cell cell (Poisoned (e, bt));
      Printexc.raise_with_backtrace e bt)

let compiled t (w : Workloads.t) =
  memoize t t.compiled_cache w.name ~label:("compile:" ^ w.name) ~compute:(fun () ->
      log "[compile] %s" w.name;
      match t.scale with
      | Some scale -> Workloads.compile ~scale w
      | None -> Workloads.compile w)

let predecoded_conv t (w : Workloads.t) =
  memoize t t.pre_conv_cache w.name
    ~label:("predecode:" ^ w.name ^ "/" ^ Bisa_timing.Pipeline.Conv.isa)
    ~compute:(fun () -> Bisa_timing.Pipeline.Conv.predecode (compiled t w).conv)

let predecoded_block t (w : Workloads.t) =
  memoize t t.pre_block_cache w.name
    ~label:("predecode:" ^ w.name ^ "/" ^ Bisa_timing.Pipeline.Block.isa)
    ~compute:(fun () -> Bisa_timing.Pipeline.Block.predecode (compiled t w).block)

(* Threaded-code compilation piggybacks on the predecode trust boundary:
   [predecoded_*] has already verified the very same program, so the
   trusted compile is sound and the verifier runs once, not twice. *)
let code_conv t (w : Workloads.t) =
  memoize t t.code_conv_cache w.name
    ~label:("compile-exec:" ^ w.name ^ "/" ^ Bisa_timing.Pipeline.Conv.isa)
    ~compute:(fun () ->
      ignore (predecoded_conv t w);
      Bisa_timing.Pipeline.Conv.compile_trusted (compiled t w).conv)

let code_block t (w : Workloads.t) =
  memoize t t.code_block_cache w.name
    ~label:("compile-exec:" ^ w.name ^ "/" ^ Bisa_timing.Pipeline.Block.isa)
    ~compute:(fun () ->
      ignore (predecoded_block t w);
      Bisa_timing.Pipeline.Block.compile_trusted (compiled t w).block)

(* The artifact memo bundles the predecode and threaded-code memos with
   the program's content hash; trust was discharged by the predecode
   memo.  This is the single value every timing run, campaign cell and
   checkpoint consumes. *)
let artifact_conv t (w : Workloads.t) =
  memoize t t.art_conv_cache w.name
    ~label:("artifact:" ^ w.name ^ "/" ^ Bisa_timing.Pipeline.Conv.isa)
    ~compute:(fun () ->
      let tables = predecoded_conv t w in
      Bisa_timing.Pipeline.Conv.bundle ~code:(code_conv t w) ~tables (compiled t w).conv)

let artifact_block t (w : Workloads.t) =
  memoize t t.art_block_cache w.name
    ~label:("artifact:" ^ w.name ^ "/" ^ Bisa_timing.Pipeline.Block.isa)
    ~compute:(fun () ->
      let tables = predecoded_block t w in
      Bisa_timing.Pipeline.Block.bundle ~code:(code_block t w) ~tables (compiled t w).block)

let key_of (cfg : Config.t) : cache_key =
  ( Option.map (fun (c : Cache.config) -> (c.size_bytes, c.assoc, c.line_bytes)) cfg.icache,
    cfg.predictor )

let run t (w : Workloads.t) (cfg : Config.t) ~isa ~f =
  let key = (w.name, isa, key_of cfg) in
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
