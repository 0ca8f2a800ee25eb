(* bisad: the persistent simulation service.

   `bisad serve` runs the daemon: a select-loop server over a Unix
   socket, all requests landing in a content-addressed artifact cache
   (compiled programs, prepared pipeline artifacts, finished results),
   with finished results spooled crash-safely to disk.  The other
   subcommands are thin clients that build exactly the same typed
   request values the one-shot CLIs build, so `bisad sim foo.c` prints
   byte-for-byte what `bisasim foo.c` prints — cold, cached, or after a
   kill -9 and restart.

   `selftest` and `soak` are the daemon's own harnesses: selftest forks
   a private server and diffs compile/simulate/replay against expected
   bytes; soak drives a large request stream (optionally SIGKILLing the
   server mid-stream) and enforces cache-hit rates, byte-stability and
   bounded memory. *)

module Driver = Bisa_cli.Driver
module Args = Bisa_cli.Args
module Proto = Bisa_proto.Proto
module Engine = Bisa_serve.Engine
module Server = Bisa_serve.Server
module Client = Bisa_serve.Client
module Diag = Bisa_base.Diag

let component = "bisad"

let default_socket = Filename.concat (Filename.get_temp_dir_name ()) "bisad.sock"

(* --- building requests from CLI inputs ---------------------------------- *)

let load_src ?scale input : Proto.prog_src =
  if Filename.check_suffix input ".cbin" then
    Proto.Conv_bin (Driver.read_file input)
  else if Filename.check_suffix input ".bbin" then
    Proto.Block_bin (Driver.read_file input)
  else begin
    let src, libs = Driver.read_source ?scale ~component input in
    Proto.Source { src; libs }
  end

(* Every diagnostic the server sent, then a nonzero exit through the
   guard — the same shape bisasim's verifier rejection takes. *)
let fail_diags = function
  | [] -> Diag.fail ~component "server reported failure with no diagnostics"
  | diags ->
    List.iter (fun d -> prerr_endline (Diag.render d)) diags;
    Diag.fail ~component "request failed (%d diagnostic%s)" (List.length diags)
      (if List.length diags = 1 then "" else "s")

let expect_ok = function Proto.Err diags -> fail_diags diags | resp -> resp

(* --- client subcommands -------------------------------------------------- *)

let ping socket =
  Driver.guard ~component @@ fun () ->
  match expect_ok (Client.one_shot socket Proto.Ping) with
  | Proto.Pong { server } ->
    Printf.printf "%s: %s\n" socket server;
    `Ok ()
  | _ -> Diag.fail ~component "unexpected response to ping"

let print_stats (s : Proto.stats) =
  Printf.printf
    "served %d requests; sim cache %d hits / %d misses; %d artifacts, %d \
     results in memory, %d spooled (%d unreadable entries skipped); peak \
     in-flight %d; peak RSS %d KB\n"
    s.served s.sim_hits s.sim_misses s.artifacts s.results s.spooled
    s.spool_skipped s.inflight_peak s.rss_kb

let stats socket =
  Driver.guard ~component @@ fun () ->
  match expect_ok (Client.one_shot socket Proto.Stats) with
  | Proto.Stats_r s ->
    print_stats s;
    `Ok ()
  | _ -> Diag.fail ~component "unexpected response to stats"

let shutdown socket =
  Driver.guard ~component @@ fun () ->
  match expect_ok (Client.one_shot socket Proto.Shutdown) with
  | Proto.Bye ->
    print_endline "server shut down";
    `Ok ()
  | _ -> Diag.fail ~component "unexpected response to shutdown"

let compile socket input isa scale out =
  Driver.guard ~component @@ fun () ->
  let req = Proto.Compile { src = load_src ?scale input; isa } in
  match expect_ok (Client.one_shot socket req) with
  | Proto.Binary { isa; bytes; prog_hash } ->
    (match out with
    | Some path ->
      Bisa_base.Atomic_file.write_string path bytes;
      Printf.printf "wrote %s (%s, %d bytes, hash %016Lx)\n" path
        (Proto.isa_name isa) (String.length bytes) prog_hash
    | None ->
      Printf.printf "%s: %s executable, %d bytes, hash %016Lx\n" input
        (Proto.isa_name isa) (String.length bytes) prog_hash);
    `Ok ()
  | _ -> Diag.fail ~component "unexpected response to compile"

let verify socket input scale =
  Driver.guard ~component @@ fun () ->
  let req = Proto.Verify { src = load_src ?scale input } in
  match expect_ok (Client.one_shot socket req) with
  | Proto.Verdict { diags = [] } ->
    Printf.printf "%s: verify OK\n" input;
    `Ok ()
  | Proto.Verdict { diags } ->
    List.iter (fun d -> prerr_endline (Diag.render d)) diags;
    Diag.fail ~component "verification rejected %s (%d diagnostic%s)" input
      (List.length diags)
      (if List.length diags = 1 then "" else "s")
  | _ -> Diag.fail ~component "unexpected response to verify"

(* Client requests always ask for the threaded-code executor, the one
   production backend; the daemon still honours the wire's [exec]
   field. *)
let sim_request ?scale input isa functional cfg show_output =
  Proto.Simulate
    {
      src = load_src ?scale input;
      isa;
      mode = (if functional then Proto.Functional else Proto.Timing);
      exec = Bisa_sim.Compile.Compiled;
      cfg;
      show_output;
    }

(* Print exactly what the one-shot CLI prints; daemon-side notes (machine
   traps) go to stderr like bisasim's. *)
let print_sim = function
  | Proto.Sim { stdout; notes; prog_hash = _; cached = _ } ->
    if notes <> "" then prerr_string notes;
    print_string stdout
  | _ -> Diag.fail ~component "unexpected response to simulate"

let sim socket input isa functional cfg show_output scale =
  Driver.guard ~component @@ fun () ->
  let req = sim_request ?scale input isa functional cfg show_output in
  print_sim (expect_ok (Client.one_shot socket req));
  `Ok ()

let cell socket bench isa cfg scale =
  Driver.guard ~component @@ fun () ->
  let req = Proto.Cell { bench; scale; isa; exec = Bisa_sim.Compile.Compiled; cfg } in
  match expect_ok (Client.one_shot socket req) with
  | Proto.Cell_done { summary; prog_hash = _; cached = _ } ->
    print_endline summary;
    `Ok ()
  | _ -> Diag.fail ~component "unexpected response to cell"

(* --- the server ----------------------------------------------------------- *)

let serve socket jobs spool result_cap max_inflight deadline idle_timeout
    slice_ops =
  Driver.guard ~component @@ fun () ->
  Bisa_base.Pool.run ~workers:jobs (fun pool ->
      let engine =
        Engine.create ~pool ?spool_dir:spool ~result_cap
          ~log:(fun d -> prerr_endline (Diag.render d))
          ()
      in
      Printf.eprintf "bisad: serving on %s (%d workers%s)\n%!" socket jobs
        (match spool with None -> "" | Some d -> ", spool " ^ d);
      Server.serve ~max_inflight ?deadline ?idle_timeout ~slice_ops ~engine
        ~path:socket ());
  `Ok ()

(* Fork a private server for the self-driving harnesses.  The parent
   talks to it as any client would; [finally] reaps it. *)
let fork_server ?deadline ?idle_timeout ?slice_ops ~socket ~jobs ~spool
    ~max_inflight () =
  match Unix.fork () with
  | 0 ->
    (try
       Bisa_base.Pool.run ~workers:jobs (fun pool ->
           let engine = Engine.create ~pool ?spool_dir:spool ~result_cap:8192 () in
           Server.serve ~max_inflight ?deadline ?idle_timeout ?slice_ops ~engine
             ~path:socket ());
       Unix._exit 0
     with _ -> Unix._exit 1)
  | pid -> pid

(* --- supervise ------------------------------------------------------------ *)

(* The self-healing wrapper: fork/exec `bisad serve` as a child of a
   monitor that restarts it (with backoff) when it dies or stops
   answering health pings.  Spool and socket carry across restarts, so
   every restart warm-starts from the crash-safe result spool. *)
let supervise socket jobs spool result_cap max_inflight deadline idle_timeout
    slice_ops health_interval health_timeout health_strikes grace backoff_base
    backoff_cap stable_secs max_restarts pid_file =
  Driver.guard ~component @@ fun () ->
  let opt_f flag = function
    | None -> []
    | Some v -> [ flag; Printf.sprintf "%g" v ]
  in
  let child_args =
    [ "bisad"; "serve"; "--socket"; socket; "-j"; string_of_int jobs ]
    @ (match spool with None -> [] | Some d -> [ "--spool"; d ])
    @ [
        "--result-cap";
        string_of_int result_cap;
        "--max-inflight";
        string_of_int max_inflight;
        "--slice-ops";
        string_of_int slice_ops;
      ]
    @ opt_f "--deadline" deadline
    @ opt_f "--idle-timeout" idle_timeout
  in
  let spawn () =
    Unix.create_process Sys.executable_name (Array.of_list child_args) Unix.stdin
      Unix.stdout Unix.stderr
  in
  let cfg =
    {
      (Bisa_serve.Supervise.default ~socket) with
      health_interval;
      health_timeout;
      health_strikes;
      grace;
      backoff_base;
      backoff_cap;
      stable_secs;
      max_restarts;
      pid_file;
      log = (fun d -> prerr_endline (Diag.render d));
    }
  in
  let r = Bisa_serve.Supervise.run cfg ~spawn in
  Printf.printf "bisad supervise: %d restart%s, %d crash%s, %d health kill%s\n"
    r.restarts
    (if r.restarts = 1 then "" else "s")
    r.crashes
    (if r.crashes = 1 then "" else "es")
    r.health_kills
    (if r.health_kills = 1 then "" else "s");
  if r.graceful then `Ok ()
  else Diag.fail ~component "supervision gave up after %d restarts" r.restarts

let fresh_tmp name =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d" name (Unix.getpid ()))
  in
  d

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* --- selftest ------------------------------------------------------------- *)

(* Start a private server, drive the canonical session against it —
   ping, compile, cold simulate, cached replay, stats, graceful
   shutdown — and require the simulate stdout to match [expect] (a file
   captured from the real one-shot CLI) byte for byte, cold and
   cached. *)
let selftest input isa functional cfg show_output scale jobs expect =
  Driver.guard ~component @@ fun () ->
  let socket = fresh_tmp "bisad-selftest" ^ ".sock" in
  let pid = fork_server ~socket ~jobs ~spool:None ~max_inflight:64 () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      try Sys.remove socket with Sys_error _ -> ())
    (fun () ->
      let fd = Client.retry_connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close fd)
        (fun () ->
          let check what ok =
            if not ok then Diag.fail ~component "selftest: %s failed" what
          in
          (match expect_ok (Client.call fd Proto.Ping) with
          | Proto.Pong { server } -> check "ping version" (server = Proto.version)
          | _ -> check "ping" false);
          (match
             expect_ok
               (Client.call fd (Proto.Compile { src = load_src ?scale input; isa }))
           with
          | Proto.Binary { bytes; _ } -> check "compile" (String.length bytes > 0)
          | _ -> check "compile" false);
          let req = sim_request ?scale input isa functional cfg show_output in
          let cold =
            match expect_ok (Client.call fd req) with
            | Proto.Sim { stdout; cached; _ } ->
              check "cold simulate is a miss" (not cached);
              stdout
            | _ ->
              check "simulate" false;
              ""
          in
          let warm =
            match expect_ok (Client.call fd req) with
            | Proto.Sim { stdout; cached; _ } ->
              check "replay is a cache hit" cached;
              stdout
            | _ ->
              check "replay" false;
              ""
          in
          check "cached replay == cold response bytes" (warm = cold);
          (match expect with
          | None -> ()
          | Some path ->
            let want = Driver.read_file path in
            if cold <> want then begin
              Printf.eprintf
                "--- one-shot CLI (%s) ---\n%s--- daemon ---\n%s" path want cold;
              check "daemon response == one-shot CLI bytes" false
            end);
          (match expect_ok (Client.call fd Proto.Stats) with
          | Proto.Stats_r s ->
            check "stats counted the hit" (s.sim_hits >= 1);
            check "stats counted the miss" (s.sim_misses >= 1)
          | _ -> check "stats" false);
          (match expect_ok (Client.call fd Proto.Shutdown) with
          | Proto.Bye -> ()
          | _ -> check "shutdown" false));
      let _, status = Unix.waitpid [] pid in
      (match status with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED n ->
        Diag.fail ~component "selftest: server exited with code %d" n
      | Unix.WSIGNALED _ | Unix.WSTOPPED _ ->
        Diag.fail ~component "selftest: server died on a signal");
      print_endline "bisad selftest OK";
      `Ok ())

(* --- soak ----------------------------------------------------------------- *)

let soak_source i =
  Printf.sprintf
    {|
int acc[8];
int main() {
  int i;
  int s = %d;
  for (i = 0; i < 400; i = i + 1) {
    acc[i & 7] = acc[i & 7] + i * %d;
    s = s + acc[i & 7];
    if (s > 50000) { s = s - 49999; }
  }
  print_int(s);
  return s & 255;
}
|}
    (i + 1)
    ((i * 7) + 3)

(* Drive [requests] simulate requests round-robin over [programs]
   distinct programs against a private (forked) server.  Enforces: hit
   rate >= 90%, every response byte-identical to the first response for
   its program, bounded peak-RSS growth, and — with [--kill] — that a
   SIGKILL mid-soak loses only in-flight requests: the restarted server
   answers from its spool, still byte-identically. *)
let soak requests programs jobs kill keep =
  Driver.guard ~component @@ fun () ->
  if requests < programs then
    Diag.fail ~component "--requests must be at least --programs";
  let dir = fresh_tmp "bisad-soak" in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let socket = Filename.concat dir "sock" in
  let spool = Filename.concat dir "spool" in
  let srcs = Array.init programs soak_source in
  let golden = Array.make programs "" in
  let req i =
    Proto.Simulate
      {
        src = Proto.Source { src = srcs.(i mod programs); libs = [] };
        isa = (if i mod 2 = 0 then Proto.Block else Proto.Conv);
        mode = Proto.Timing;
        exec = Bisa_sim.Compile.Compiled;
        cfg = Proto.default_sim_cfg;
        show_output = true;
      }
  in
  (* Distinct (program, isa) cells: warm-up misses, everything else must
     hit. *)
  let distinct = min requests (2 * programs) in
  let server = ref (fork_server ~socket ~jobs ~spool:(Some spool) ~max_inflight:64 ()) in
  let conn = ref (Client.retry_connect socket) in
  let hits = ref 0 in
  let misses = ref 0 in
  let retried = ref 0 in
  let kill_at = if kill then requests / 2 else -1 in
  let killed = ref false in
  let baseline_rss = ref 0 in
  let reconnect () =
    Client.close !conn;
    conn := Client.retry_connect socket
  in
  let rec call_retrying n r =
    match Client.call !conn r with
    | resp -> resp
    | exception (Diag.Fail _ | Unix.Unix_error _) when n > 0 ->
      (* The server vanished mid-request (the --kill leg): only this
         in-flight request is affected; reconnect and replay it. *)
      incr retried;
      reconnect ();
      call_retrying (n - 1) r
  in
  Fun.protect
    ~finally:(fun () ->
      (try Client.close !conn with _ -> ());
      (try Unix.kill !server Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] !server) with Unix.Unix_error _ -> ());
      if not keep then rm_rf dir)
    (fun () ->
      for i = 0 to requests - 1 do
        if i = kill_at then begin
          (* SIGKILL, then restart on the same socket and spool.  The
             spool must hand back every finished result byte-identically. *)
          Unix.kill !server Sys.sigkill;
          ignore (Unix.waitpid [] !server);
          killed := true;
          server := fork_server ~socket ~jobs ~spool:(Some spool) ~max_inflight:64 ();
          reconnect ()
        end;
        (match call_retrying 3 (req i) with
        | Proto.Sim { stdout; cached; _ } ->
          if cached then incr hits else incr misses;
          let slot = i mod programs in
          if golden.(slot) = "" then golden.(slot) <- stdout
          else if i mod (2 * programs) = slot && stdout <> golden.(slot) then
            Diag.fail ~component
              "soak: response for program %d diverged at request %d" slot i
        | Proto.Err diags -> fail_diags diags
        | _ -> Diag.fail ~component "soak: unexpected response at request %d" i);
        if i = distinct then begin
          match call_retrying 3 Proto.Stats with
          | Proto.Stats_r s -> baseline_rss := s.rss_kb
          | _ -> ()
        end
      done;
      let final_stats =
        match call_retrying 3 Proto.Stats with
        | Proto.Stats_r s -> Some s
        | _ -> None
      in
      (match expect_ok (call_retrying 3 Proto.Shutdown) with
      | Proto.Bye -> ()
      | _ -> Diag.fail ~component "soak: shutdown failed");
      let _, status = Unix.waitpid [] !server in
      (match status with
      | Unix.WEXITED 0 -> ()
      | _ -> Diag.fail ~component "soak: server did not exit cleanly");
      let total = !hits + !misses in
      let hit_rate = 100.0 *. float_of_int !hits /. float_of_int (max 1 total) in
      Printf.printf
        "soak: %d requests (%d programs), %d hits / %d misses (%.1f%% hit \
         rate), %d retried after kill%s\n"
        total programs !hits !misses hit_rate !retried
        (if !killed then " [server SIGKILLed and restarted mid-soak]" else "");
      (match final_stats with
      | Some s ->
        print_stats s;
        if !baseline_rss > 0 && s.rss_kb > !baseline_rss * 2 then
          Diag.fail ~component
            "soak: peak RSS grew from %d KB to %d KB over the cached phase — \
             resident memory is not bounded"
            !baseline_rss s.rss_kb;
        if !killed && s.spooled = 0 then
          Diag.fail ~component "soak: restarted server reloaded nothing from the spool"
      | None -> ());
      if hit_rate < 90.0 then
        Diag.fail ~component "soak: hit rate %.1f%% is below the 90%% bar" hit_rate;
      print_endline "bisad soak OK";
      `Ok ())

(* --- command line --------------------------------------------------------- *)

let () =
  let open Cmdliner in
  let socket =
    Arg.(
      value
      & opt string default_socket
      & info [ "socket" ]
          ~env:(Cmd.Env.info "BISA_SOCKET" ~doc:"Default for $(b,--socket).")
          ~doc:"Unix domain socket the daemon listens on.")
  in
  let input =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"INPUT"
          ~doc:"MiniC source file, built-in workload name, or .cbin/.bbin binary.")
  in
  let functional =
    Arg.(value & flag & info [ "functional" ] ~doc:"Functional execution only (no timing).")
  in
  let show_output =
    Arg.(value & flag & info [ "show-output" ] ~doc:"Print the program's output stream.")
  in
  let doc_cmd name doc term = Cmd.v (Cmd.info name ~doc) term in
  let spool =
    Arg.(
      value
      & opt (some string) None
      & info [ "spool" ]
          ~env:(Cmd.Env.info "BISA_SPOOL" ~doc:"Default for $(b,--spool).")
          ~doc:
            "Directory for crash-safe result spooling: every finished result \
             is written atomically and reloaded on restart, so a kill -9 \
             loses only in-flight requests.")
  in
  let result_cap =
    Arg.(
      value & opt int 4096
      & info [ "result-cap" ]
          ~doc:"In-memory result cache bound (FIFO eviction; spool keeps all).")
  in
  let max_inflight =
    Arg.(
      value & opt int 64
      & info [ "max-inflight" ]
          ~doc:
            "Simulations allowed in flight at once; further work-shaped \
             requests get an immediate structured busy error (backpressure).  \
             Ping, stats and shutdown are always admitted.")
  in
  let idle_timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "idle-timeout" ]
          ~env:(Cmd.Env.info "BISA_IDLE_TIMEOUT" ~doc:"Default for $(b,--idle-timeout).")
          ~doc:
            "Evict connections with no read/write progress for this many \
             seconds (slow-loris partial frames included) unless they are \
             waiting on their own in-flight request.  Default: never.")
  in
  let slice_ops =
    Arg.(
      value & opt int 32_768
      & info [ "slice-ops" ]
          ~doc:
            "Cooperative quantum in dynamic operations: how much of one \
             simulation runs between select rounds, bounding ping latency \
             under load.")
  in
  let serve_cmd =
    doc_cmd "serve" "Run the daemon."
      Term.(
        ret
          (const serve $ socket $ Args.jobs $ spool $ result_cap $ max_inflight
         $ Args.deadline $ idle_timeout $ slice_ops))
  in
  let supervise_cmd =
    let health_interval =
      Arg.(
        value & opt float 2.0
        & info [ "health-interval" ] ~doc:"Seconds between liveness pings.")
    in
    let health_timeout =
      Arg.(
        value & opt float 1.0
        & info [ "health-timeout" ]
            ~doc:"Kernel socket timeout per ping; a wedged server reads as dead.")
    in
    let health_strikes =
      Arg.(
        value & opt int 3
        & info [ "health-strikes" ]
            ~doc:
              "Consecutive failed pings before the child is killed and \
               restarted — one slow round is never fatal.")
    in
    let grace =
      Arg.(
        value & opt float 5.0
        & info [ "grace" ] ~doc:"SIGTERM-to-SIGKILL escalation window in seconds.")
    in
    let backoff_base =
      Arg.(
        value & opt float 0.5
        & info [ "backoff-base" ] ~doc:"First restart delay in seconds.")
    in
    let backoff_cap =
      Arg.(
        value & opt float 10.0
        & info [ "backoff-cap" ] ~doc:"Restart delay ceiling in seconds.")
    in
    let stable_secs =
      Arg.(
        value & opt float 30.0
        & info [ "stable-secs" ]
            ~doc:"Uptime after which the restart backoff resets to the base.")
    in
    let max_restarts =
      Arg.(
        value
        & opt (some int) None
        & info [ "max-restarts" ]
            ~doc:"Give up (exit nonzero) after this many restarts.  Default: never.")
    in
    let pid_file =
      Arg.(
        value
        & opt (some string) None
        & info [ "pid-file" ]
            ~doc:"Atomically (re)written with the current server child's pid.")
    in
    doc_cmd "supervise"
      "Run the daemon under a self-healing monitor: restart on crash (with \
       backoff), kill and restart on failed health pings, warm-start every \
       restart from the spool.  SIGTERM stops both cleanly."
      Term.(
        ret
          (const supervise $ socket $ Args.jobs $ spool $ result_cap
         $ max_inflight $ Args.deadline $ idle_timeout $ slice_ops
         $ health_interval $ health_timeout $ health_strikes $ grace
         $ backoff_base $ backoff_cap $ stable_secs $ max_restarts $ pid_file))
  in
  let ping_cmd = doc_cmd "ping" "Check the daemon is alive." Term.(ret (const ping $ socket)) in
  let stats_cmd =
    doc_cmd "stats" "Print serving and cache statistics." Term.(ret (const stats $ socket))
  in
  let shutdown_cmd =
    doc_cmd "shutdown" "Gracefully stop the daemon." Term.(ret (const shutdown $ socket))
  in
  let compile_cmd =
    let out =
      Arg.(
        value
        & opt (some string) None
        & info [ "o"; "output" ] ~doc:"Write the executable image here.")
    in
    doc_cmd "compile" "Compile through the daemon's artifact cache."
      Term.(ret (const compile $ socket $ input $ Args.isa $ Args.scale $ out))
  in
  let verify_cmd =
    doc_cmd "verify" "Verify every executable the input carries."
      Term.(ret (const verify $ socket $ input $ Args.scale))
  in
  let sim_cmd =
    doc_cmd "sim" "Simulate through the daemon (byte-identical to bisasim)."
      Term.(
        ret
          (const sim $ socket $ input $ Args.isa $ functional
         $ Args.sim_cfg $ show_output $ Args.scale))
  in
  let cell_cmd =
    let bench =
      Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"BENCH" ~doc:"Built-in workload name.")
    in
    doc_cmd "cell" "Run one experiment cell through the daemon's caches."
      Term.(
        ret (const cell $ socket $ bench $ Args.isa $ Args.sim_cfg $ Args.scale))
  in
  let selftest_cmd =
    let expect =
      Arg.(
        value
        & opt (some string) None
        & info [ "expect" ]
            ~doc:
              "File holding the one-shot CLI's stdout for the same request; \
               the daemon's response must match it byte for byte.")
    in
    doc_cmd "selftest"
      "Start a private server; drive compile + simulate + cached replay + \
       shutdown; diff against the one-shot CLI's bytes."
      Term.(
        ret
          (const selftest $ input $ Args.isa $ functional
         $ Args.sim_cfg $ show_output $ Args.scale $ Args.jobs $ expect))
  in
  let soak_cmd =
    let requests =
      Arg.(
        value & opt int 100_000
        & info [ "requests" ] ~doc:"Total requests to drive (default 100000).")
    in
    let programs =
      Arg.(
        value & opt int 8
        & info [ "programs" ] ~doc:"Distinct programs in the round-robin mix.")
    in
    let kill_f =
      Arg.(
        value & flag
        & info [ "kill" ]
            ~doc:
              "SIGKILL the server mid-soak and restart it on the same spool; \
               only in-flight requests may be lost.")
    in
    let keep =
      Arg.(value & flag & info [ "keep" ] ~doc:"Keep the scratch directory.")
    in
    doc_cmd "soak"
      "Drive a large request stream against a private server and enforce \
       cache-hit rate, byte-stability and bounded memory."
      Term.(ret (const soak $ requests $ programs $ Args.jobs $ kill_f $ keep))
  in
  let info =
    Cmd.info "bisad" ~doc:"Persistent block-structured ISA simulation service"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            serve_cmd;
            supervise_cmd;
            ping_cmd;
            stats_cmd;
            shutdown_cmd;
            compile_cmd;
            verify_cmd;
            sim_cmd;
            cell_cmd;
            selftest_cmd;
            soak_cmd;
          ]))
