(* The worker pool and everything built on it: ordering, exception
   propagation, nested submission, sequential equivalence, a memo entry
   forced once from many workers, the harness memo's exactly-once
   locking, and -j1/-j4 output determinism on reduced experiment grids. *)

module Pool = Bisa_base.Pool
module Memo = Bisa_base.Memo
module Harness = Bisa_experiments.Harness

(* Burn a little CPU so items finish out of submission order: later
   items get less work than earlier ones. *)
let busy n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := !acc + (i * i)
  done;
  !acc

let test_map_list_order () =
  Pool.run ~workers:4 @@ fun pool ->
  let inputs = List.init 32 Fun.id in
  let got =
    Pool.map_list pool
      (fun i ->
        ignore (busy ((32 - i) * 2000));
        i * i)
      inputs
  in
  Alcotest.(check (list int)) "results in submission order" (List.map (fun i -> i * i) inputs) got

let test_await_exception () =
  Pool.run ~workers:2 @@ fun pool ->
  let fut = Pool.submit pool (fun () -> failwith "boom") in
  (match Pool.await fut with
  | _ -> Alcotest.fail "await did not re-raise"
  | exception Failure m -> Alcotest.(check string) "original exception" "boom" m);
  (* A settled failing future re-raises on every await. *)
  match Pool.await fut with
  | _ -> Alcotest.fail "second await did not re-raise"
  | exception Failure m -> Alcotest.(check string) "still raises" "boom" m

let test_map_list_earliest_exception () =
  Pool.run ~workers:4 @@ fun pool ->
  match
    Pool.map_list pool
      (fun i ->
        ignore (busy ((8 - i) * 5000));
        if i >= 5 then failwith (string_of_int i) else i)
      (List.init 8 Fun.id)
  with
  | _ -> Alcotest.fail "map_list did not raise"
  | exception Failure m ->
    (* Item 7 finishes (and fails) first, but the earliest failing item
       in submission order must win. *)
    Alcotest.(check string) "earliest failing item" "5" m

let test_nested_map_list () =
  Pool.run ~workers:2 @@ fun pool ->
  let got =
    Pool.map_list pool
      (fun i -> Pool.map_list pool (fun j -> (10 * i) + j) (List.init 4 Fun.id))
      (List.init 4 Fun.id)
  in
  let expect = List.init 4 (fun i -> List.init 4 (fun j -> (10 * i) + j)) in
  Alcotest.(check (list (list int))) "nested map_list completes correctly" expect got

let test_sequential_pool_is_direct_execution () =
  let trace_pool = ref [] and trace_direct = ref [] in
  let f trace i =
    trace := i :: !trace;
    i + 1
  in
  let direct = List.map (f trace_direct) [ 3; 1; 4; 1; 5 ] in
  let via_pool =
    Pool.run ~workers:1 @@ fun pool -> Pool.map_list pool (f trace_pool) [ 3; 1; 4; 1; 5 ]
  in
  Alcotest.(check (list int)) "same results" direct via_pool;
  Alcotest.(check (list int)) "same side-effect order" !trace_direct !trace_pool;
  (* submit on a size-1 pool runs eagerly, before await. *)
  let ran = ref false in
  let fut = Pool.sequential |> fun p -> Pool.submit p (fun () -> ran := true) in
  Alcotest.(check bool) "eager execution" true !ran;
  Pool.await fut

(* Regression for the bench harness bug: a plain [lazy] forced from
   several domains is unsafe.  One memo key is the domain-safe once-cell:
   16 requests from 4 workers must compute it exactly once and all see
   the same value. *)
let test_once_concurrent_force () =
  Pool.run ~workers:4 @@ fun pool ->
  let m = Memo.create () in
  let evals = Atomic.make 0 in
  let got =
    Pool.map_list pool
      (fun _ ->
        Memo.find_or_compute m "k" (fun () ->
            Atomic.incr evals;
            (* Long enough for the other domains to find the entry busy. *)
            Unix.sleepf 0.05;
            Atomic.get evals))
      (List.init 16 Fun.id)
  in
  Alcotest.(check int) "computed exactly once" 1 (Atomic.get evals);
  List.iter (fun v -> Alcotest.(check int) "every requester sees the same value" 1 v) got

(* N domains requesting the same (benchmark, config) cell: the harness
   memo must compile and simulate exactly once, and every requester must
   observe the very same Metrics.t. *)
let test_harness_memo_computes_once () =
  Pool.run ~workers:4 @@ fun pool ->
  let h = Harness.create ~scale:1 ~pool () in
  let lock = Mutex.create () in
  let computes = ref [] in
  Harness.set_compute_hook h (fun label ->
      Mutex.lock lock;
      computes := label :: !computes;
      Mutex.unlock lock);
  let w = Bisa_workloads.Workloads.find "m88ksim" in
  let cfg = Harness.base_config h in
  let metrics = Pool.map_list pool (fun _ -> Harness.run_conv h w cfg) (List.init 8 Fun.id) in
  (match metrics with
  | first :: rest ->
    List.iter
      (fun m -> Alcotest.(check bool) "same Metrics.t object" true (m == first))
      rest
  | [] -> Alcotest.fail "no results");
  let sorted = List.sort compare !computes in
  Alcotest.(check (list string))
    "one artifact, one compile, one run"
    [ "artifact:m88ksim/conv"; "compile:m88ksim"; "run:m88ksim/conv" ]
    sorted

(* Byte-identical reports at every worker count, on reduced grids (the
   full figures run the big surrogates and belong to the CLI, which the
   PR verified separately).  Covers the harness grid path, the
   compile-per-item extras path, and both ablation shapes. *)
let test_reports_deterministic_across_workers () =
  let render pool =
    let tc = Bisa_experiments.Extras.trace_cache_rivalry ~workloads:[ "compress" ] ~pool () in
    let pred = Bisa_experiments.Extras.predication_study ~workloads:[ "compress" ] ~pool () in
    let hist = Bisa_experiments.Ablations.history_policy ~workloads:[ "compress" ] ~pool () in
    let rules = Bisa_experiments.Ablations.enlargement_rules ~workloads:[ "compress" ] ~pool () in
    String.concat "\n"
      [ tc.rendered; tc.summary; pred.rendered; pred.summary; hist.rendered; rules.rendered ]
  in
  let seq = render Pool.sequential in
  let par = Pool.run ~workers:2 render in
  Alcotest.(check string) "sequential and parallel renders byte-identical" seq par

(* The sharded fuzz campaigns report identically at every worker count:
   per-item state is derived from the work item (Rng.derive / one
   generation pass), never from a shared mutable generator. *)
let test_campaigns_deterministic_across_workers () =
  let diff pool =
    let r = Bisa_check.Oracle.fuzz ~seed:7 ~count:25 ~pool () in
    (r.tested, r.skipped, r.skip_reasons, Option.is_some r.failure)
  in
  let decode pool =
    let c = Bisa_compiler.Compiler.compile "int main() { print_int(7); return 0; }" in
    match
      Bisa_check.Decode_fuzz.run ~pool Bisa_check.Decode_fuzz.Conv ~seed:9 ~count:300
        (Bisa_isa.Encode.conv_to_bytes c.conv)
    with
    | Ok r -> (r.mutants, r.decoded, r.rejected)
    | Error e -> Alcotest.fail e
  in
  let seq_d = diff Pool.sequential and seq_m = decode Pool.sequential in
  let par_d, par_m = Pool.run ~workers:4 (fun pool -> (diff pool, decode pool)) in
  Alcotest.(check bool) "differential report identical" true (seq_d = par_d);
  Alcotest.(check bool) "decode report identical" true (seq_m = par_m);
  let _, _, rejected = seq_m in
  Alcotest.(check bool) "mutator still rejects some mutants" true (rejected > 0)

let suite =
  [
    Alcotest.test_case "map_list keeps submission order" `Quick test_map_list_order;
    Alcotest.test_case "await re-raises" `Quick test_await_exception;
    Alcotest.test_case "map_list raises earliest failure" `Quick
      test_map_list_earliest_exception;
    Alcotest.test_case "nested map_list does not deadlock" `Quick test_nested_map_list;
    Alcotest.test_case "workers:1 = direct sequential execution" `Quick
      test_sequential_pool_is_direct_execution;
    Alcotest.test_case "once: concurrent force evaluates once" `Quick
      test_once_concurrent_force;
    Alcotest.test_case "harness memo computes each cell once" `Slow
      test_harness_memo_computes_once;
    Alcotest.test_case "reports byte-identical at -j1/-j4" `Slow
      test_reports_deterministic_across_workers;
    Alcotest.test_case "fuzz campaigns identical at -j1/-j4" `Slow
      test_campaigns_deterministic_across_workers;
  ]
