(* Timing-model tests: the dataflow engine's latency/contention/window
   behavior, and end-to-end pipeline sanity bounds. *)

module Engine = Bisa_timing.Engine
module Predecode = Bisa_timing.Predecode
module Config = Bisa_timing.Config
module Opclass = Bisa_isa.Opclass
module P = Bisa_timing.Pipeline

let time_conv ?probe cfg art = fst (P.Conv.run_artifact ?probe cfg art)
let time_block ?probe cfg art = fst (P.Block.run_artifact ?probe cfg art)

(* The interpreter reference leg: artifacts without threaded code. *)
let interp_conv prog = P.Conv.bundle ~tables:(P.Conv.predecode prog) prog
let interp_block prog = P.Block.bundle ~tables:(P.Block.predecode prog) prog

let tiny_config =
  {
    Config.default with
    icache = None;
    dcache = None;
    decode_depth = 0;
    redirect_penalty = 2;
  }

(* Engine units are described as synthetic predecode tables: static
   (opclass, defs, uses, mem-kind) templates plus a per-op dynamic address
   array, exactly how the pipelines drive the engine. *)
type memspec = Mnone | Mload of int | Mstore of int

let op ?(defs = [||]) ?(uses = [||]) ?(mem = Mnone) cls = (cls, defs, uses, mem)

let run_ops e ~dispatch ~commit ops =
  let tab =
    Predecode.of_list
      (List.map
         (fun (cls, defs, uses, mem) ->
           let kind =
             match mem with
             | Mnone -> Predecode.mem_none
             | Mload _ -> Predecode.mem_load
             | Mstore _ -> Predecode.mem_store
           in
           (cls, Array.to_list defs, Array.to_list uses, kind))
         ops)
  in
  let mem_addrs =
    Array.of_list
      (List.map
         (fun (_, _, _, mem) ->
           match mem with Mnone -> -1 | Mload a | Mstore a -> a)
         ops)
  in
  Engine.run_unit e ~dispatch ~commit tab ~lo:0 ~len:(List.length ops) ~term:(-1)
    ~mem_addrs ~mem_off:0;
  (Engine.unit_resolve e, Engine.unit_retire e)

let test_engine_dependency_chain () =
  let e = Engine.create tiny_config in
  (* Three dependent integer ops: each completes one cycle after the
     previous (latency 1). *)
  let ops =
    [
      op Opclass.Integer ~defs:[| 1 |];
      op Opclass.Integer ~defs:[| 2 |] ~uses:[| 1 |];
      op Opclass.Integer ~defs:[| 3 |] ~uses:[| 2 |];
    ]
  in
  let resolve, _ = run_ops e ~dispatch:0 ~commit:true ops in
  Alcotest.(check int) "chain of 3 x 1-cycle" 4 resolve

let test_engine_div_latency () =
  let e = Engine.create tiny_config in
  let ops =
    [ op Opclass.Div ~defs:[| 1 |]; op Opclass.Integer ~defs:[| 2 |] ~uses:[| 1 |] ]
  in
  let resolve, _ = run_ops e ~dispatch:0 ~commit:true ops in
  (* div issues at 1, completes at 9; dependent add completes at 10. *)
  Alcotest.(check int) "div then add" 10 resolve

let test_engine_fu_contention () =
  let cfg = { tiny_config with fu_count = 2 } in
  let e = Engine.create cfg in
  (* Four independent ops on two FUs: two issue at cycle 1, two at 2. *)
  let ops = List.init 4 (fun i -> op Opclass.Integer ~defs:[| i + 1 |]) in
  let _, retire = run_ops e ~dispatch:0 ~commit:true ops in
  Alcotest.(check int) "second wave finishes at 3" 3 retire

let test_engine_commit_discard () =
  let e = Engine.create tiny_config in
  let slow = [ op Opclass.Div ~defs:[| 1 |] ] in
  ignore (run_ops e ~dispatch:0 ~commit:false slow);
  (* The discarded div must not delay a later consumer of register 1. *)
  let consumer = [ op Opclass.Integer ~defs:[| 2 |] ~uses:[| 1 |] ] in
  let resolve, _ = run_ops e ~dispatch:0 ~commit:true consumer in
  Alcotest.(check int) "no stale dependency" 2 resolve

let test_engine_store_load_ordering () =
  let e = Engine.create tiny_config in
  let st = [ op Opclass.Div ~defs:[| 1 |]; op Opclass.Store ~uses:[| 1 |] ~mem:(Mstore 64) ] in
  ignore (run_ops e ~dispatch:0 ~commit:true st);
  (* A later load from the same address waits for the store's data. *)
  let ld = [ op Opclass.Load ~defs:[| 2 |] ~mem:(Mload 64) ] in
  let resolve, _ = run_ops e ~dispatch:0 ~commit:true ld in
  Alcotest.(check bool) "load waits for store" true (resolve >= 11);
  (* A load from a different address does not. *)
  let ld2 = [ op Opclass.Load ~defs:[| 3 |] ~mem:(Mload 128) ] in
  let resolve2, _ = run_ops e ~dispatch:0 ~commit:true ld2 in
  Alcotest.(check bool) "independent load fast" true (resolve2 <= 3)

let test_engine_window_backpressure () =
  let cfg = { tiny_config with window_blocks = 2; window_ops = 1000 } in
  let e = Engine.create cfg in
  (* Two long-latency single-op blocks fill the 2-block window. *)
  for _ = 1 to 2 do
    ignore (run_ops e ~dispatch:(Engine.admit e ~want:0 ~op_count:1)
              ~commit:true [ op Opclass.Div ~defs:[| 9 |] ])
  done;
  (* The third block cannot dispatch until the oldest retires (cycle 9). *)
  let d = Engine.admit e ~want:0 ~op_count:1 in
  Alcotest.(check bool) "waited for retirement" true (d >= 9)

let test_engine_monotonic_retire () =
  let e = Engine.create tiny_config in
  let _, retire1 = run_ops e ~dispatch:0 ~commit:true [ op Opclass.Div ~defs:[| 1 |] ] in
  let _, retire2 = run_ops e ~dispatch:0 ~commit:true [ op Opclass.Integer ~defs:[| 2 |] ] in
  (* In-order retirement: the fast block cannot retire before the slow one. *)
  Alcotest.(check bool) "in-order" true (retire2 >= retire1)

(* --- Pipelines ---------------------------------------------------------------- *)

let sample =
  {|
int main() {
  int i;
  int acc = 0;
  for (i = 0; i < 500; i = i + 1) {
    acc = acc + (i & 7) * 3;
    if (i % 5 == 0) { acc = acc - 2; }
  }
  print_int(acc);
  return 0;
}
|}

let test_pipeline_sanity_bounds () =
  let c = Bisa_compiler.Compiler.compile sample in
  let cfg = Config.default in
  let mc = time_conv cfg (P.Conv.prepare c.conv) in
  let mb = time_block cfg (P.Block.prepare c.block) in
  (* Cycles bounded below by fetch bandwidth and above by total latency. *)
  Alcotest.(check bool) "conv lower bound" true
    (mc.cycles >= mc.retired_ops / cfg.issue_width);
  Alcotest.(check bool) "conv upper bound" true (mc.cycles < mc.retired_ops * 12);
  Alcotest.(check bool) "block lower bound" true
    (mb.cycles >= mb.retired_blocks);
  Alcotest.(check bool) "retired ops counted" true (mb.retired_ops > 0);
  Alcotest.(check bool) "ipc sane" true
    (Bisa_timing.Metrics.ipc mc > 0.1 && Bisa_timing.Metrics.ipc mc < 16.0)

let test_perfect_pred_not_slower () =
  let c = Bisa_compiler.Compiler.compile sample in
  let conv = P.Conv.prepare c.conv and block = P.Block.prepare c.block in
  List.iter
    (fun icache ->
      let real = { Config.default with icache } in
      let perfect = { real with predictor = Config.Perfect } in
      let r = time_conv real conv in
      let p = time_conv perfect conv in
      Alcotest.(check bool) "conv: perfect <= real" true (p.cycles <= r.cycles);
      let rb = time_block real block in
      let pb = time_block perfect block in
      Alcotest.(check bool) "block: perfect <= real" true (pb.cycles <= rb.cycles))
    [ None; Config.default.icache ]

let test_bigger_icache_not_slower () =
  let c = Bisa_workloads.Workloads.compile ~scale:1 (Bisa_workloads.Workloads.find "go") in
  let block = P.Block.prepare c.block in
  let at kb =
    let cfg =
      {
        Config.default with
        icache = Some { Bisa_uarch.Cache.size_bytes = kb * 1024; assoc = 4; line_bytes = 32 };
      }
    in
    (time_block cfg block).cycles
  in
  let c2 = at 2 and c8 = at 8 and c64 = at 64 in
  Alcotest.(check bool) "8KB <= 2KB" true (c8 <= c2);
  Alcotest.(check bool) "64KB <= 8KB" true (c64 <= c8)

let test_metrics_mean_block_size () =
  let c = Bisa_compiler.Compiler.compile sample in
  let mc = time_conv Config.default (P.Conv.prepare c.conv) in
  let mb = time_block Config.default (P.Block.prepare c.block) in
  let szc = Bisa_timing.Metrics.mean_block_size mc in
  let szb = Bisa_timing.Metrics.mean_block_size mb in
  Alcotest.(check bool) "conv blocks small" true (szc > 2.0 && szc < 16.0);
  Alcotest.(check bool) "enlargement grew blocks" true (szb > szc)

(* --- Fast-path equivalence and allocation discipline ------------------------- *)

(* The pipelines hoist probe/injector dispatch to session creation: a null
   probe selects a specialized step with the tests compiled out.  A live
   probe (any non-null record) must therefore not change a single metric —
   only observe.  Checked for both executors on both pipelines. *)
let test_probe_equivalence () =
  let c = Bisa_compiler.Compiler.compile sample in
  let mbytes m =
    let w = Bisa_base.Codec.W.create () in
    Bisa_timing.Metrics.save m w;
    Bisa_base.Codec.W.contents w
  in
  let check name run =
    let fast = run Bisa_obs.Probe.null in
    let fired = ref 0 in
    let probe =
      {
        Bisa_obs.Probe.null with
        unit_start = (fun ~cycle:_ ~addr:_ ~ops:_ -> incr fired);
      }
    in
    let general = run probe in
    Alcotest.(check bool) (name ^ ": probe observed units") true (!fired > 0);
    Alcotest.(check string)
      (name ^ ": general path metrics == fast path")
      (mbytes fast) (mbytes general)
  in
  let conv = interp_conv c.conv and block = interp_block c.block in
  check "conv interp" (fun probe -> time_conv ~probe Config.default conv);
  check "block interp" (fun probe -> time_block ~probe Config.default block);
  let conv = P.Conv.prepare c.conv and block = P.Block.prepare c.block in
  check "conv compiled" (fun probe -> time_conv ~probe Config.default conv);
  check "block compiled" (fun probe -> time_block ~probe Config.default block)

(* A longer-running workload so the steady-state window is thousands of
   steps deep, far past predictor/cache warmup and table growth. *)
let alloc_sample =
  {|
int main() {
  int i;
  int acc = 0;
  for (i = 0; i < 4000; i = i + 1) {
    acc = acc + (i & 7) * 3 - (acc >> 4);
    if (i % 5 == 0) { acc = acc - 2; }
    if (i % 11 == 0) { acc = acc ^ i; }
  }
  print_int(acc);
  return 0;
}
|}

(* The pre-scheduled template fast path must not allocate per step once
   warm: the conv drain is allocation-free, the block drain is bounded by
   a few words (output consing and BTB fills).  A regression to
   closure-per-step or record-per-step costs tens of words and fails
   loudly here. *)
let test_steady_state_allocation () =
  let c = Bisa_compiler.Compiler.compile alloc_sample in
  let words_per_step name session step bound =
    (* Warm: predictor tables, caches, store map, scratch growth. *)
    let warm = ref 0 in
    while !warm < 2000 && step session do incr warm done;
    Alcotest.(check bool) (name ^ ": still running after warmup") true
      (!warm = 2000);
    let before = Gc.minor_words () in
    let n = ref 0 in
    while !n < 4000 && step session do incr n done;
    let used = Gc.minor_words () -. before in
    let per_step = used /. float_of_int (max 1 !n) in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.2f words/step <= %.1f" name per_step bound)
      true
      (per_step <= bound)
  in
  let cfg = Config.default in
  let conv = P.Conv.session_artifact cfg (P.Conv.prepare c.conv) in
  words_per_step "conv fast step" conv P.Conv.step 2.0;
  let block = P.Block.session_artifact cfg (P.Block.prepare c.block) in
  words_per_step "block fast step" block P.Block.step 24.0

let suite =
  [
    Alcotest.test_case "engine chain" `Quick test_engine_dependency_chain;
    Alcotest.test_case "engine div latency" `Quick test_engine_div_latency;
    Alcotest.test_case "engine fu contention" `Quick test_engine_fu_contention;
    Alcotest.test_case "engine discard" `Quick test_engine_commit_discard;
    Alcotest.test_case "engine store/load" `Quick test_engine_store_load_ordering;
    Alcotest.test_case "engine window" `Quick test_engine_window_backpressure;
    Alcotest.test_case "engine in-order retire" `Quick test_engine_monotonic_retire;
    Alcotest.test_case "pipeline bounds" `Quick test_pipeline_sanity_bounds;
    Alcotest.test_case "perfect pred" `Quick test_perfect_pred_not_slower;
    Alcotest.test_case "icache monotone" `Quick test_bigger_icache_not_slower;
    Alcotest.test_case "block sizes" `Quick test_metrics_mean_block_size;
    Alcotest.test_case "probe equivalence" `Quick test_probe_equivalence;
    Alcotest.test_case "steady-state allocation" `Quick
      test_steady_state_allocation;
  ]
