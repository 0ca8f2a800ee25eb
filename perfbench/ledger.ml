(* The per-layer ledger: every layer of the program applied to a
   workload's own programs, one span per call, plus the exact counts the
   simulators report.  A traced run accumulates into [Util.values]; the
   per-layer metrics are derived from those values and the span totals. *)

module P = Bisa_timing.Pipeline
module Config = Bisa_timing.Config
module Metrics = Bisa_timing.Metrics
module Probe = Bisa_obs.Probe
module Proto = Bisa_proto.Proto
open Util

(* Counts of simulated events, summed over the ledger's timing runs. *)
type counts = {
  mutable ops : int;
  mutable events : int;
  mutable predicts : int;
  mutable correct : int;
  mutable btb : int;
  mutable btb_hits : int;
  mutable redirects : int;
  mutable occ_samples : int;
  mutable occ_ops : int;
}

let counts () =
  {
    ops = 0;
    events = 0;
    predicts = 0;
    correct = 0;
    btb = 0;
    btb_hits = 0;
    redirects = 0;
    occ_samples = 0;
    occ_ops = 0;
  }

(* Recorded icache addresses, replayed into a fresh cache model; the
   prefix kept per run bounds the ledger's memory. *)
let addr_cap = 1 lsl 20

let recording_probe c addrs n =
  let ev () = c.events <- c.events + 1 in
  {
    Probe.unit_start = (fun ~cycle:_ ~addr:_ ~ops:_ -> ev ());
    unit_retire = (fun ~dispatch:_ ~resolve:_ ~retire:_ ~ops:_ ~committed:_ -> ev ());
    predict =
      (fun ~pc:_ ~correct ->
        ev ();
        c.predicts <- c.predicts + 1;
        if correct then c.correct <- c.correct + 1);
    redirect =
      (fun ~cycle:_ ~until:_ ~cause:_ ->
        ev ();
        c.redirects <- c.redirects + 1);
    squash = (fun ~cycle:_ ~block:_ ~ops:_ -> ev ());
    icache_access =
      (fun ~addr ~hit:_ ->
        ev ();
        if !n < addr_cap then begin
          addrs.(!n) <- addr;
          incr n
        end);
    dcache_access = (fun ~addr:_ ~hit:_ -> ev ());
    btb_lookup =
      (fun ~key:_ ~hit ->
        ev ();
        c.btb <- c.btb + 1;
        if hit then c.btb_hits <- c.btb_hits + 1);
    tc_lookup = (fun ~start:_ ~hit:_ -> ev ());
    tc_serve = (fun ~ops:_ -> ev ());
    occupancy =
      (fun ~cycle:_ ~ops ->
        ev ();
        c.occ_samples <- c.occ_samples + 1;
        c.occ_ops <- c.occ_ops + ops);
  }

(* What one ISA of one program costs per operation, for the ledger
   rows. *)
type isa_row = { m : Metrics.t; interp_ns : float; compiled_ns : float; timing_ns : float }

(* One ISA of one program through functional execution (both backends),
   timing (plain and probed), icache replay and a mid-run checkpoint
   save/load. *)
let run_isa (type p a)
    (module S : P.S with type prog = p and type artifact = a)
    ~(interp : p -> Bisa_sim.Output.t * int) ~(compiled : unit -> Bisa_sim.Output.t * int)
    ~(reference : Bisa_sim.Output.t) ~fail ~cfg ~(label : string) (art : a) c =
  let isa = S.isa in
  let check what (o : Bisa_sim.Output.t) =
    if not (Bisa_sim.Output.equal o reference) then
      fail (Printf.sprintf "%s %s/%s output differs from the reference" what label isa)
  in
  let per_op dt n = ratio (dt *. 1e9) (float_of_int n) in
  let (o, n), dt = time (fun () -> span ("interp_" ^ isa) (fun () -> interp (S.Artifact.prog art))) in
  check "interpreted" o;
  add ("interp_ops_" ^ isa) (float_of_int n);
  let interp_ns = per_op dt n in
  let (o, n), dt = time (fun () -> span ("compiled_" ^ isa) compiled) in
  check "compiled" o;
  add ("compiled_ops_" ^ isa) (float_of_int n);
  let compiled_ns = per_op dt n in
  let w0 = Gc.minor_words () in
  let (m, o), dt = time (fun () -> span ("timing_" ^ isa) (fun () -> S.run_artifact cfg art)) in
  let words = Gc.minor_words () -. w0 in
  let timing_ns = per_op dt m.retired_ops in
  check "timed" o;
  add ("timing_ops_" ^ isa) (float_of_int m.retired_ops);
  add ("timing_cycles_" ^ isa) (float_of_int m.cycles);
  add ("timing_words_" ^ isa) words;
  add "squashed_ops" (float_of_int m.squashed_ops);
  add "icache_accesses" (float_of_int m.icache_accesses);
  add "icache_misses" (float_of_int m.icache_misses);
  let addrs = Array.make addr_cap 0 and n = ref 0 in
  ignore (span "timing_probe" (fun () -> S.run_artifact ~probe:(recording_probe c addrs n) cfg art));
  c.ops <- c.ops + m.retired_ops;
  (match cfg.Config.icache with
  | Some geom ->
    let cache = Bisa_uarch.Cache.create geom in
    span "icache_replay" (fun () ->
        for i = 0 to !n - 1 do
          ignore (Bisa_uarch.Cache.access cache addrs.(i))
        done);
    add "icache_replayed" (float_of_int !n)
  | None -> ());
  (* Checkpoint a session half way through the run, then restore it into
     a fresh session. *)
  let s = S.session_artifact cfg art in
  while S.ops s < m.retired_ops / 2 && S.step s do () done;
  let file = String.map (function '/' -> '_' | ch -> ch) label ^ "." ^ isa ^ ".ckpt" in
  let path = Filename.concat !run_dir file in
  let prog_hash = S.Artifact.hash art and cfg_hash = Config.fingerprint cfg in
  span "checkpoint_save" (fun () ->
      Bisa_timing.Checkpoint.save ~path ~isa ~prog_hash ~cfg_hash ~ops:(S.ops s) (S.save s));
  add "checkpoint_bytes" (float_of_int (Unix.stat path).Unix.st_size);
  add "checkpoints" 1.0;
  let s' = S.session_artifact cfg art in
  span "checkpoint_load" (fun () ->
      match Bisa_timing.Checkpoint.load ~path ~isa ~prog_hash ~cfg_hash with
      | Some (_, r) -> S.restore s' r
      | None -> fail ("checkpoint vanished: " ^ path));
  Sys.remove path;
  let m', o = S.finish s' in
  if m'.cycles <> m.cycles then fail (Printf.sprintf "restored %s/%s run diverged" label isa);
  check "restored" o;
  { m; interp_ns; compiled_ns; timing_ns }

(* Encode and decode one request/response pair many times. *)
let proto_rounds = 200

let codec req resp =
  let reqb = Proto.encode_request req and respb = Proto.encode_response resp in
  span "proto_encode" (fun () ->
      for _ = 1 to proto_rounds do
        ignore (Proto.encode_request req);
        ignore (Proto.encode_response resp)
      done);
  span "proto_decode" (fun () ->
      for _ = 1 to proto_rounds do
        ignore (Proto.decode_request reqb);
        ignore (Proto.decode_response respb)
      done);
  add "proto_frames" (float_of_int (2 * proto_rounds))

let engine_rounds = 50

(* In-process cache hits: the first [handle] computes, the rest replay. *)
let engine_hits engine req =
  ignore (Bisa_serve.Engine.handle engine req);
  span "engine_hit" (fun () ->
      for _ = 1 to engine_rounds do
        ignore (Bisa_serve.Engine.handle engine req)
      done);
  add "engine_hits" (float_of_int engine_rounds)

let gain_pct (mc : Metrics.t) (mb : Metrics.t) =
  100.0 *. float_of_int (mc.cycles - mb.cycles) /. float_of_int mc.cycles

let load_spans = [ "frontend"; "compile"; "encode"; "decode"; "verify"; "predecode"; "sim_compile" ]

let row_header =
  "program        KB conv/block  load ms  interp ns/op  compiled ns/op  timing ns/op    ipc        \
   block gain"

let row label (l : Progs.loaded) ~load_ms c b =
  Printf.sprintf "%-12s %6.1f/%6.1f %8.1f %6.1f/%6.1f %7.1f/%6.1f %6.1f/%6.1f %5.2f/%5.2f %6.1f%%" label
    l.conv_kb l.block_kb load_ms c.interp_ns b.interp_ns c.compiled_ns b.compiled_ns c.timing_ns
    b.timing_ns (Metrics.ipc c.m) (Metrics.ipc b.m) (gain_pct c.m b.m)

let load_seconds () =
  let tot = span_totals () in
  List.fold_left
    (fun a name -> match Hashtbl.find_opt tot name with Some (_, d, _) -> a +. d | None -> a)
    0.0 load_spans

(* Run the whole ledger over [progs]; [fail] records a failed check.
   Returns one printable row per program. *)
let run ~cfg ~fail (progs : Progs.prog list) =
  let c = counts () in
  let engine = Bisa_serve.Engine.create () in
  let rows =
    List.filter_map
      (fun (p : Progs.prog) ->
        let loaded_before = load_seconds () in
        match Progs.load p with
        | exception e ->
          fail (Printf.sprintf "%s: %s" p.label (Printexc.to_string e));
          None
        | l ->
          let load_ms = (load_seconds () -. loaded_before) *. 1e3 in
          let reference = Progs.reference_of p in
          let rc =
            run_isa (module P.Conv)
              ~interp:(fun prog -> Bisa_sim.Conv_exec.run prog ())
              ~compiled:(fun () -> Bisa_sim.Compile.Conv.run l.conv_code)
              ~reference ~fail ~cfg ~label:p.label (Progs.conv_artifact l) c
          in
          let rb =
            run_isa (module P.Block)
              ~interp:(fun prog -> Bisa_sim.Block_exec.run prog ())
              ~compiled:(fun () -> Bisa_sim.Compile.Block.run l.block_code)
              ~reference ~fail ~cfg ~label:p.label (Progs.block_artifact l) c
          in
          let req =
            Proto.Simulate
              {
                src = Proto.Source { src = p.src; libs = p.libs };
                isa = Proto.Block;
                mode = Proto.Functional;
                exec = Bisa_sim.Compile.Compiled;
                cfg = Proto.default_sim_cfg;
                show_output = true;
              }
          in
          let resp = Bisa_serve.Engine.handle engine req in
          (match resp with Proto.Err _ -> fail (p.label ^ ": engine returned Err") | _ -> ());
          codec req resp;
          engine_hits engine req;
          Some (row p.label l ~load_ms rc rb))
      progs
  in
  set "probe_events" (float_of_int c.events);
  set "probe_ops" (float_of_int c.ops);
  set "predicts" (float_of_int c.predicts);
  set "predicts_correct" (float_of_int c.correct);
  set "btb_lookups" (float_of_int c.btb);
  set "btb_hits" (float_of_int c.btb_hits);
  set "redirects" (float_of_int c.redirects);
  set "occupancy_mean" (ratio (float_of_int c.occ_ops) (float_of_int c.occ_samples));
  row_header :: rows

(* --- the per-layer metrics ------------------------------------------------- *)

(* Span names whose self time is reported: the layers, plus the
   workload-level spans that enclose them. *)
let self_layers =
  [
    "frontend"; "compile"; "encode"; "decode"; "verify"; "predecode"; "sim_compile";
    "functional"; "interp_conv"; "interp_block"; "compiled_conv"; "compiled_block";
    "timing_conv"; "timing_block"; "timing_probe"; "icache_replay"; "checkpoint_save";
    "checkpoint_load"; "proto_encode"; "proto_decode"; "engine_hit"; "setup"; "program";
    "report_section"; "request"; "stream_run";
  ]

(* Metrics that count simulated or compiled work rather than time: two
   runs of the same code and seed must report them identically. *)
let exact =
  [
    "isa.conv_kb"; "isa.block_kb"; "timing.minor_words_per_op_conv";
    "timing.minor_words_per_op_block"; "timing.ipc_conv"; "timing.ipc_block";
    "timing.probe_events_per_op"; "timing.squashed_ops_frac"; "timing.window_occupancy_mean";
    "uarch.icache_accesses_per_kop"; "uarch.icache_miss_rate"; "uarch.pred_accuracy";
    "uarch.redirects_per_kop"; "uarch.btb_hit_rate"; "model.fig3_gap_pp"; "model.fig4_gap_pp";
    "harness.cells"; "harness.compiles"; "harness.artifacts"; "checkpoint.kb";
    "serve.sim_hit_rate";
  ]

let metrics () =
  let tot = span_totals () in
  let d name = match Hashtbl.find_opt tot name with Some (_, d, _) -> d | None -> 0.0 in
  let n name = match Hashtbl.find_opt tot name with Some (n, _, _) -> float_of_int n | None -> 0.0 in
  let self name = match Hashtbl.find_opt tot name with Some (_, _, s) -> s | None -> 0.0 in
  let conv_kb, block_kb =
    Hashtbl.fold (fun _ (c, b) (x, y) -> (x +. c, y +. b)) Progs.sizes (0.0, 0.0)
  in
  let load_kb = get "load_kb" in
  let ns_per_op span ops = ratio (d span *. 1e9) (get ops) in
  let isa_metrics isa =
    [
      m ("sim.interp_ns_per_op_" ^ isa) "ns" (ns_per_op ("interp_" ^ isa) ("interp_ops_" ^ isa));
      m ("sim.compiled_ns_per_op_" ^ isa) "ns"
        (ns_per_op ("compiled_" ^ isa) ("compiled_ops_" ^ isa));
      m ("timing.ns_per_op_" ^ isa) "ns" (ns_per_op ("timing_" ^ isa) ("timing_ops_" ^ isa));
      m ("timing.engine_ns_per_op_" ^ isa) "ns"
        (ns_per_op ("timing_" ^ isa) ("timing_ops_" ^ isa)
        -. ns_per_op ("compiled_" ^ isa) ("compiled_ops_" ^ isa));
      m ("timing.minor_words_per_op_" ^ isa) "words"
        (ratio (get ("timing_words_" ^ isa)) (get ("timing_ops_" ^ isa)));
      m ("timing.ipc_" ^ isa) "ops/cycle"
        (ratio (get ("timing_ops_" ^ isa)) (get ("timing_cycles_" ^ isa)));
    ]
  in
  let timed_ops = get "timing_ops_conv" +. get "timing_ops_block" in
  let ckpts = get "checkpoints" in
  [
    m "frontend.ms_per_prog" "ms" (ratio (d "frontend" *. 1e3) (n "frontend"));
    m "opt_backend.ms_per_prog" "ms" (ratio ((d "compile" -. d "frontend") *. 1e3) (n "compile"));
    m "isa.encode_us_per_kb" "us/KB" (ratio (d "encode" *. 1e6) load_kb);
    m "isa.decode_us_per_kb" "us/KB" (ratio (d "decode" *. 1e6) load_kb);
    m "verify.us_per_kb" "us/KB" (ratio (d "verify" *. 1e6) load_kb);
    m "predecode.us_per_kb" "us/KB" (ratio (d "predecode" *. 1e6) load_kb);
    m "sim_compile.us_per_kb" "us/KB" (ratio (d "sim_compile" *. 1e6) load_kb);
    m "isa.conv_kb" "KB" conv_kb;
    m "isa.block_kb" "KB" block_kb;
  ]
  @ isa_metrics "conv" @ isa_metrics "block"
  @ [
      m "timing.probe_events_per_op" "count" (ratio (get "probe_events") (get "probe_ops"));
      m "timing.squashed_ops_frac" "frac"
        (ratio (get "squashed_ops") (timed_ops +. get "squashed_ops"));
      m "timing.window_occupancy_mean" "ops" (get "occupancy_mean");
      m "uarch.icache_ns_per_access" "ns" (ratio (d "icache_replay" *. 1e9) (get "icache_replayed"));
      m "uarch.icache_accesses_per_kop" "count" (ratio (get "icache_accesses" *. 1e3) timed_ops);
      m "uarch.icache_miss_rate" "frac" (ratio (get "icache_misses") (get "icache_accesses"));
      m "uarch.pred_accuracy" "frac" (ratio (get "predicts_correct") (get "predicts"));
      m "uarch.redirects_per_kop" "count" (ratio (get "redirects" *. 1e3) (get "probe_ops"));
      m "uarch.btb_hit_rate" "frac" (ratio (get "btb_hits") (get "btb_lookups"));
      m "model.fig3_gap_pp" "pp" (get "fig3_gap_pp");
      m "model.fig4_gap_pp" "pp" (get "fig4_gap_pp");
      m "harness.cells" "count" (get "hook_run");
      m "harness.compiles" "count" (get "hook_compile");
      m "harness.artifacts" "count" (get "hook_artifact");
      m "checkpoint.save_ms" "ms" (ratio (d "checkpoint_save" *. 1e3) ckpts);
      m "checkpoint.load_ms" "ms" (ratio (d "checkpoint_load" *. 1e3) (n "checkpoint_load"));
      m "checkpoint.kb" "KB" (ratio (get "checkpoint_bytes") (ckpts *. 1024.0));
      m "checkpoint.share" "frac" (get "checkpoint_share");
      m "proto.encode_us" "us" (ratio (d "proto_encode" *. 1e6) (get "proto_frames"));
      m "proto.decode_us" "us" (ratio (d "proto_decode" *. 1e6) (get "proto_frames"));
      m "serve.engine_hit_us" "us" (ratio (d "engine_hit" *. 1e6) (get "engine_hits"));
      m "serve.sim_hit_rate" "frac" (get "sim_hit_rate");
      m "serve.ping_rtt_us" "us" (get "ping_rtt_us");
      m "serve.wait_ms" "ms" (get "wait_ms");
      m "serve.warm_p50_ms" "ms" (get "warm_p50_ms");
      m "serve.warm_p99_ms" "ms" (get "warm_p99_ms");
      m "trace.overhead_frac" "frac" (get "trace_overhead");
    ]
  @ List.map (fun s -> m ("self_s." ^ s) "s" (self s)) self_layers
