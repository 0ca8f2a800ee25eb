(* Serving-layer tests: the wire codec's failure contract, the engine's
   headline guarantee — a cache-hit response is byte-identical to the
   cold-start response and to the one-shot CLI's rendering, at every
   worker count, across evictions, and across a restart from the spool —
   and its one compute path: sliced jobs and [handle] agree. *)

module Proto = Bisa_proto.Proto
module Engine = Bisa_serve.Engine
module Pipeline = Bisa_timing.Pipeline
module Diag = Bisa_base.Diag
module Pool = Bisa_base.Pool

let src = "int main() { int i; int s = 0; for (i = 0; i < 40; i = i + 1) { s = s + i * 3; } print_int(s); return s & 255; }"
let src2 = "int main() { print_int(7); return 7; }"
let src3 = "int main() { print_int(11); return 11; }"

let sim ?(s = src) ?(isa = Proto.Block) ?(mode = Proto.Timing)
    ?(exec = Bisa_sim.Compile.Interp) ?(cfg = Proto.default_sim_cfg) () =
  Proto.Simulate
    { src = Proto.Source { src = s; libs = [] }; isa; mode; exec; cfg; show_output = true }

let sim_payload = function
  | Proto.Sim { stdout; cached; _ } -> (stdout, cached)
  | Proto.Err ds ->
    Alcotest.failf "unexpected Err: %s"
      (String.concat "; " (List.map Diag.render ds))
  | _ -> Alcotest.fail "not a Sim response"

let tmp_dir name =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bisa-test-%s-%d" name (Unix.getpid ()))
  in
  (try
     Array.iter (fun e -> Sys.remove (Filename.concat d e)) (Sys.readdir d);
     Unix.rmdir d
   with Sys_error _ | Unix.Unix_error _ -> ());
  Unix.mkdir d 0o755;
  d

(* --- codec failure contract ---------------------------------------------- *)

let check_proto_reject what f =
  match f () with
  | _ -> Alcotest.failf "%s: decoded instead of rejecting" what
  | exception Diag.Fail d -> begin
    match d.Diag.loc with
    | Diag.Byte { section; _ } ->
      Alcotest.(check string) (what ^ ": component") "proto" d.Diag.component;
      Alcotest.(check bool) (what ^ ": section nonempty") true (section <> "")
    | _ -> Alcotest.failf "%s: diagnostic without a byte offset: %s" what (Diag.render d)
  end

let test_decode_robustness () =
  let payload = Proto.encode_request (sim ()) in
  check_proto_reject "truncated payload" (fun () ->
      Proto.decode_request (String.sub payload 0 (String.length payload / 2)));
  check_proto_reject "wrong version" (fun () ->
      Proto.decode_request ("bogus/9" ^ payload));
  check_proto_reject "trailing garbage" (fun () ->
      Proto.decode_request (payload ^ "x"));
  check_proto_reject "response decoder on a request" (fun () ->
      ignore (Proto.decode_response payload));
  (* Nested batches are a client bug on encode, a wire error on decode. *)
  (match Proto.encode_request (Proto.Batch [ Proto.Batch [ Proto.Ping ] ]) with
  | _ -> Alcotest.fail "nested batch encoded"
  | exception Invalid_argument _ -> ());
  (* An oversized length prefix must be rejected before allocation. *)
  let buf = Buffer.create 8 in
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 0x7fff_ffffl;
  Buffer.add_bytes buf b;
  check_proto_reject "oversized frame" (fun () -> Proto.peel_frame buf 0)

let test_round_trip () =
  let reqs = [ Proto.Ping; sim (); Proto.Batch [ Proto.Stats; sim ~s:src2 () ] ] in
  List.iter
    (fun r ->
      Alcotest.(check bool) "request round-trips" true
        (Proto.decode_request (Proto.encode_request r) = r))
    reqs;
  let resp =
    Proto.Sim { stdout = "x\n"; notes = ""; prog_hash = 5L; cached = true }
  in
  Alcotest.(check bool) "response round-trips" true
    (Proto.decode_response (Proto.encode_response resp) = resp)

(* --- cache correctness ---------------------------------------------------- *)

(* The one-shot CLI's stdout for [sim ()], computed the way bisasim
   computes it: trusted pack, timing run, canonical rendering. *)
let cli_bytes () =
  let c = Bisa_compiler.Compiler.compile src in
  let packed = Pipeline.pack_block_trusted c.block in
  let cfg = Proto.to_config Proto.default_sim_cfg in
  let m, out = Pipeline.run_packed cfg packed in
  Proto.render_timing ~show_output:true
    ~out:(Bisa_sim.Output.to_string out)
    ~summary:
      (Bisa_timing.Metrics.summary ~name:Pipeline.Block.descr m)

let with_pool workers f =
  if workers <= 1 then f Pool.sequential else Pool.run ~workers f

(* Cold response == cached response == the CLI's bytes, at -j1 and -j4. *)
let test_cache_hit_bytes () =
  let expected = cli_bytes () in
  List.iter
    (fun workers ->
      with_pool workers @@ fun pool ->
      let e = Engine.create ~pool () in
      let cold, cold_cached = sim_payload (Engine.handle e (sim ())) in
      let warm, warm_cached = sim_payload (Engine.handle e (sim ())) in
      Alcotest.(check bool) "cold is a miss" false cold_cached;
      Alcotest.(check bool) "warm is a hit" true warm_cached;
      Alcotest.(check string) "cold == CLI bytes" expected cold;
      Alcotest.(check string) "warm == cold" cold warm)
    [ 1; 4 ]

(* A batch of duplicates must collapse to one simulation and return
   identical stdout bytes in submission order at every worker count
   (only the [cached] flag distinguishes the one computing request from
   its raced waiters). *)
let test_batch_identical () =
  let batch = Proto.Batch (List.init 6 (fun _ -> sim ())) in
  let run workers =
    with_pool workers @@ fun pool ->
    let e = Engine.create ~pool () in
    match Engine.handle e batch with
    | Proto.Batch_r rs -> (List.map (fun r -> fst (sim_payload r)) rs, Engine.stats e)
    | _ -> Alcotest.fail "not a batch response"
  in
  let r1, s1 = run 1 in
  let r4, s4 = run 4 in
  Alcotest.(check int) "batch size" 6 (List.length r4);
  Alcotest.(check bool) "all stdouts byte-identical" true
    (List.for_all (fun r -> r = List.hd r4) r4);
  Alcotest.(check bool) "-j1 == -j4 bytes" true (r1 = r4);
  Alcotest.(check int) "one simulation at -j1" 1 s1.Proto.sim_misses;
  Alcotest.(check int) "one simulation at -j4" 1 s4.Proto.sim_misses

(* Functional-mode responses hit the same cache discipline. *)
let test_functional_cache () =
  let req = sim ~mode:Proto.Functional ~isa:Proto.Conv () in
  let e = Engine.create () in
  let cold, c0 = sim_payload (Engine.handle e req) in
  let warm, c1 = sim_payload (Engine.handle e req) in
  Alcotest.(check bool) "miss then hit" true ((not c0) && c1);
  Alcotest.(check string) "identical bytes" cold warm

(* Distinct cfg / show_output must not alias in the cache. *)
let test_no_key_aliasing () =
  let e = Engine.create () in
  let quiet =
    match sim () with
    | Proto.Simulate s -> Proto.Simulate { s with show_output = false }
    | _ -> assert false
  in
  let loud, _ = sim_payload (Engine.handle e (sim ())) in
  let hushed, _ = sim_payload (Engine.handle e quiet) in
  Alcotest.(check bool) "show_output changes the bytes" true (loud <> hushed);
  let small_cache =
    match sim () with
    | Proto.Simulate s ->
      Proto.Simulate { s with cfg = { s.cfg with Proto.icache_kb = 1 } }
    | _ -> assert false
  in
  let _, cached = sim_payload (Engine.handle e small_cache) in
  Alcotest.(check bool) "different cfg is a fresh miss" false cached

(* Kill the engine, restart on the same spool: the result must come back
   cached with identical bytes. *)
let test_spool_reload () =
  let dir = tmp_dir "spool" in
  let a = Engine.create ~spool_dir:dir () in
  let cold, _ = sim_payload (Engine.handle a (sim ())) in
  let b = Engine.create ~spool_dir:dir () in
  let warm, cached = sim_payload (Engine.handle b (sim ())) in
  Alcotest.(check bool) "reloaded from spool" true cached;
  Alcotest.(check string) "spool bytes == cold bytes" cold warm;
  Alcotest.(check bool) "stats saw the spool" true ((Engine.stats b).Proto.spooled >= 1)

(* FIFO eviction trims memory but the spool keeps every finished byte. *)
let test_eviction () =
  let dir = tmp_dir "evict" in
  let e = Engine.create ~spool_dir:dir ~result_cap:2 () in
  let r1, _ = sim_payload (Engine.handle e (sim ())) in
  let _ = Engine.handle e (sim ~s:src2 ()) in
  let _ = Engine.handle e (sim ~s:src3 ()) in
  let s = Engine.stats e in
  Alcotest.(check bool) "memory bounded" true (s.Proto.results <= 2);
  Alcotest.(check int) "spool keeps all" 3 s.Proto.spooled;
  (* The evicted first result recomputes (or reloads) byte-identically. *)
  let r1', _ = sim_payload (Engine.handle e (sim ())) in
  Alcotest.(check string) "evicted result recomputes identically" r1 r1'

(* Failures come back as structured Err responses, never exceptions. *)
let test_errors_are_structured () =
  let e = Engine.create () in
  (match Engine.handle e (sim ~s:"int main() { return undefined_fn(); }" ()) with
  | Proto.Err (d :: _) ->
    Alcotest.(check bool) "has a component" true (d.Diag.component <> "")
  | _ -> Alcotest.fail "bad source must yield Err");
  match
    Engine.handle e
      (Proto.Cell
         {
           bench = "no-such-bench";
           scale = None;
           isa = Proto.Block;
           exec = Bisa_sim.Compile.Interp;
           cfg = Proto.default_sim_cfg;
         })
  with
  | Proto.Err (_ :: _) -> ()
  | _ -> Alcotest.fail "bad workload must yield Err"

(* --- one compute path: sliced jobs and handle agree --------------------- *)

(* Long enough (tens of thousands of ops) to take many 1000-op slices. *)
let long_src k =
  Printf.sprintf
    "int main() { int i; int s = %d; for (i = 0; i < 4000; i = i + 1) { s = s + (i ^ (s >> 3)); } print_int(s); return s & 255; }"
    k

(* Drive a request the server loop's way: [start], then 1000-op slices
   to completion.  Returns the response and the number of slices. *)
let drive e req =
  match Engine.start e req with
  | Engine.Done r -> (r, 0)
  | Engine.Job j ->
    let rec go n =
      match Engine.step_job j ~slice_ops:1000 with
      | `More -> go (n + 1)
      | `Done r -> (r, n + 1)
    in
    go 0

(* Everything but the process-wide peak RSS. *)
let counters e = { (Engine.stats e) with Proto.rss_kb = 0 }

let cell isa =
  Proto.Cell
    {
      bench = "compress";
      scale = Some 1;
      isa;
      exec = Bisa_sim.Compile.Compiled;
      cfg = Proto.default_sim_cfg;
    }

(* Each request shape, sliced on one engine and handled whole on a fresh
   one: the same bytes and the same counters, cold and warm. *)
let test_sliced_equals_handle () =
  let compiled = Bisa_sim.Compile.Compiled in
  List.iter
    (fun (what, req) ->
      let a = Engine.create () and b = Engine.create () in
      let sliced, slices = drive a req in
      let whole = Engine.handle b req in
      Alcotest.(check bool) (what ^ ": took several slices") true (slices > 1);
      Alcotest.(check string) (what ^ ": cold bytes")
        (Proto.encode_response whole) (Proto.encode_response sliced);
      Alcotest.(check bool) (what ^ ": cold counters") true (counters a = counters b);
      let sliced, _ = drive a req in
      let whole = Engine.handle b req in
      Alcotest.(check string) (what ^ ": warm bytes")
        (Proto.encode_response whole) (Proto.encode_response sliced);
      Alcotest.(check bool) (what ^ ": warm counters") true (counters a = counters b))
    [
      ("timing conv", sim ~s:(long_src 0) ~isa:Proto.Conv ~exec:compiled ());
      ("timing block", sim ~s:(long_src 0) ~isa:Proto.Block ~exec:compiled ());
      ("functional", sim ~s:(long_src 0) ~mode:Proto.Functional ~exec:compiled ());
      ("cell", cell Proto.Block);
    ]

(* A runaway is the same structured Err on both paths, and neither
   caches anything. *)
let test_runaway_both_paths () =
  let cfg = { Proto.default_sim_cfg with budget = 5000 } in
  List.iter
    (fun (what, mode) ->
      let req = sim ~s:(long_src 0) ~mode ~exec:Bisa_sim.Compile.Compiled ~cfg () in
      let a = Engine.create () and b = Engine.create () in
      let sliced, _ = drive a req in
      let whole = Engine.handle b req in
      (match whole with
      | Proto.Err (_ :: _) -> ()
      | _ -> Alcotest.failf "%s: a runaway must yield Err" what);
      Alcotest.(check string) (what ^ ": same Err")
        (Proto.encode_response whole) (Proto.encode_response sliced);
      Alcotest.(check int) (what ^ ": sliced caches nothing") 0 (counters a).Proto.results;
      Alcotest.(check int) (what ^ ": handle caches nothing") 0 (counters b).Proto.results;
      Alcotest.(check bool) (what ^ ": same counters") true (counters a = counters b))
    [ ("timing", Proto.Timing); ("functional", Proto.Functional) ]

(* Regression: a failed computation used to stay in [handle]'s result
   table for good, never evicted by [result_cap] and never freed. *)
let test_failures_not_retained () =
  let e = Engine.create ~result_cap:4 () in
  let cfg = { Proto.default_sim_cfg with budget = 1000 } in
  for k = 1 to 50 do
    match Engine.handle e (sim ~s:(long_src k) ~mode:Proto.Functional ~cfg ()) with
    | Proto.Err _ -> ()
    | _ -> Alcotest.fail "a runaway must yield Err"
  done;
  Alcotest.(check int) "no failed result retained" 0 (Engine.stats e).Proto.results

(* --- the retrying client's schedule: pure, published, pinned --------------

   (The checks that need a live forked server — liveness under load,
   deadline expiry, admission control, idle eviction — live in
   serve_live.ml: Unix.fork is forbidden once the pool tests above have
   created domains, so they run as their own domain-free executable.) *)

module Client = Bisa_serve.Client


let test_backoff_schedule () =
  let sched seed = Client.backoff_schedule ~seed ~attempts:6 ~base:0.01 ~cap:0.5 in
  Alcotest.(check bool) "same seed, same schedule" true (sched 7 = sched 7);
  Alcotest.(check bool) "different seed, different schedule" true (sched 7 <> sched 8);
  Alcotest.(check int) "one delay per attempt" 6 (List.length (sched 7));
  List.iter
    (fun d ->
      Alcotest.(check bool) "every delay within [base, cap]" true
        (d >= 0.01 && d <= 0.5))
    (sched 7);
  (* Decorrelated jitter's growth bound: each delay at most 3x its
     predecessor (modulo the cap clamp). *)
  ignore
    (List.fold_left
       (fun prev d ->
         Alcotest.(check bool) "delay <= max(base, 3 x prev)" true
           (d <= Float.max 0.01 (3. *. prev) +. 1e-9);
         d)
       0.01 (sched 7));
  (* call_retry sleeps exactly the published schedule: capture its naps
     against a socket that will never answer. *)
  let slept = ref [] in
  (match
     Client.call_retry ~attempts:4 ~base:0.01 ~cap:0.5 ~seed:7
       ~sleep:(fun d -> slept := d :: !slept)
       "/nonexistent/bisad.sock" Proto.Ping
   with
  | _ -> Alcotest.fail "a dead socket must raise after exhausting retries"
  | exception _ -> ());
  let expected = Client.backoff_schedule ~seed:7 ~attempts:3 ~base:0.01 ~cap:0.5 in
  Alcotest.(check bool) "call_retry slept the published schedule" true
    (List.rev !slept = expected)

(* --- spool damage is loud -------------------------------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn > 0 && go 0

let test_spool_skip_surfaced () =
  let dir = tmp_dir "skip" in
  let a = Engine.create ~spool_dir:dir () in
  let cold, _ = sim_payload (Engine.handle a (sim ())) in
  let oc = open_out_bin (Filename.concat dir "deadbeef.resp") in
  output_string oc "this is not a spooled result";
  close_out oc;
  let diags = ref [] in
  let b = Engine.create ~spool_dir:dir ~log:(fun d -> diags := d :: !diags) () in
  Alcotest.(check int) "skip counted in stats" 1
    (Engine.stats b).Proto.spool_skipped;
  (match !diags with
  | [ d ] ->
    Alcotest.(check bool) "diagnostic names the damaged file" true
      (contains d.Diag.message "deadbeef")
  | ds -> Alcotest.failf "expected one skip diagnostic, got %d" (List.length ds));
  (* The intact entry still warms the cache, byte-identically. *)
  let warm, cached = sim_payload (Engine.handle b (sim ())) in
  Alcotest.(check bool) "good entry reloads" true cached;
  Alcotest.(check string) "bytes intact past the damage" cold warm

let suite =
  [
    Alcotest.test_case "decode robustness" `Quick test_decode_robustness;
    Alcotest.test_case "round trip" `Quick test_round_trip;
    Alcotest.test_case "cache hit == cold == CLI bytes (j1,j4)" `Quick
      test_cache_hit_bytes;
    Alcotest.test_case "batch identical across worker counts" `Quick
      test_batch_identical;
    Alcotest.test_case "functional cache" `Quick test_functional_cache;
    Alcotest.test_case "no cache-key aliasing" `Quick test_no_key_aliasing;
    Alcotest.test_case "spool reload" `Quick test_spool_reload;
    Alcotest.test_case "eviction keeps spool" `Quick test_eviction;
    Alcotest.test_case "structured errors" `Quick test_errors_are_structured;
    Alcotest.test_case "sliced job == handle, bytes and stats" `Quick
      test_sliced_equals_handle;
    Alcotest.test_case "runaway: same Err on both paths" `Quick test_runaway_both_paths;
    Alcotest.test_case "failed results are not retained" `Quick test_failures_not_retained;
    Alcotest.test_case "retry backoff schedule is deterministic" `Quick
      test_backoff_schedule;
    Alcotest.test_case "spool damage is counted and logged" `Quick
      test_spool_skip_surfaced;
  ]
