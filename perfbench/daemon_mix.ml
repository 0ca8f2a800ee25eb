(* daemon_mix: the daemon's share of a traced toolchain run.  A forked
   [Server.serve] on a fresh [Engine], its spool in a scratch directory,
   is driven closed loop over two connections by a fixed seeded request
   mix.  Callers of bisad (the CLIs, campaign
   drivers) wait for each reply, hence the closed loop.  Most of the mix
   is [Cell] requests over surrogate x ISA x icache x predictor at scale
   1: a key's first occurrence is cold, its repeats are warm.  The rest
   is [Simulate], [Compile] and [Verify] of generated sources, plus
   [Ping].  This is the only load on the wire codec, the engine's caches,
   spool writes and the select loop.  It is not an end-to-end workload:
   two processes on a shared host's two cores make its wall times too
   unsteady to bound, so it only feeds the per-layer serve metrics. *)

module Proto = Bisa_proto.Proto
module Engine = Bisa_serve.Engine
module Server = Bisa_serve.Server
module Client = Bisa_serve.Client
module Rng = Bisa_base.Rng
module W = Bisa_workloads.Workloads
open Util

type kind = Cold | Warm | Gen | Ping

type item = {
  req : Proto.request;
  kind : kind;
  key : int;  (** index of the key's first occurrence in the mix *)
}

let icache_kbs = [ 0; 2; 4; 8; 16 ]
let gen_per_pass = 8
let warm_per_pass = 3000
let ping_every = 50

let gen_progs ~seed ~pass = Progs.generated ~seed:(seed + (7919 * (pass + 1))) gen_per_pass

let cell ~bench ~isa ~icache_kb ~perfect_pred =
  Proto.Cell
    {
      bench;
      scale = Some 1;
      isa;
      exec = Bisa_sim.Compile.Compiled;
      cfg = { Proto.default_sim_cfg with icache_kb; perfect_pred };
    }

(* The mix of pass [pass]: every cell of surrogate x ISA x icache x
   predictor once cold (the same 160 cells on every seed, so the cold
   latency distribution does not depend on the seed), generated sources
   simulated, compiled and verified, and warm repeats of cells already
   asked, with a ping among them now and then — all in seeded order. *)
let mix ~seed ~pass =
  let rng = Rng.derive seed (1000 + pass) in
  let cold =
    List.concat_map
      (fun (w : W.t) ->
        List.concat_map
          (fun isa ->
            List.concat_map
              (fun perfect_pred ->
                List.map (fun icache_kb -> cell ~bench:w.name ~isa ~icache_kb ~perfect_pred) icache_kbs)
              [ false; true ])
          [ Proto.Conv; Proto.Block ])
      W.all
  in
  let gens = gen_progs ~seed ~pass in
  let src (p : Progs.prog) = Proto.Source { src = p.src; libs = p.libs } in
  let gen_reqs =
    List.concat_map
      (fun (p : Progs.prog) ->
        [
          Proto.Simulate
            {
              src = src p;
              isa = Proto.Block;
              mode = Proto.Timing;
              exec = Bisa_sim.Compile.Compiled;
              cfg = Proto.default_sim_cfg;
              show_output = true;
            };
          Proto.Compile { src = src p; isa = Proto.Conv };
          Proto.Verify { src = src p };
        ])
      gens
  in
  let firsts =
    Array.of_list (List.map (fun r -> (r, Cold)) cold @ List.map (fun r -> (r, Gen)) gen_reqs)
  in
  Rng.shuffle rng firsts;
  let n_first = Array.length firsts in
  let seq = ref [] and pos = ref 0 and cells = ref [] in
  let emit req kind key =
    seq := { req; kind; key } :: !seq;
    incr pos
  in
  Array.iteri
    (fun i (req, kind) ->
      (* Warm repeats spread evenly between consecutive first asks. *)
      let warm = (warm_per_pass * (i + 1) / n_first) - (warm_per_pass * i / n_first) in
      if i > 0 then
        for _ = 1 to warm do
          match !cells with
          | [] -> ()
          | cs ->
            let key, req = List.nth cs (Rng.int rng (List.length cs)) in
            if !pos mod ping_every = 0 then emit Proto.Ping Ping 0;
            emit req Warm key
        done;
      if kind = Cold then cells := (!pos, req) :: !cells;
      emit req kind !pos)
    firsts;
  Array.of_list (List.rev !seq)

(* --- the server ------------------------------------------------------------ *)

(* Fork a server on [dir]'s spool and wait until it answers a ping.  The
   child signals readiness through a pipe, so the wait involves no
   polling interval. *)
let start dir =
  let path = Filename.concat dir "d.sock" and spool = Filename.concat dir "spool" in
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let on_ready () =
      ignore (Unix.write_substring wr "r" 0 1);
      Unix.close wr
    in
    (try Server.serve ~on_ready ~engine:(Engine.create ~spool_dir:spool ()) ~path ()
     with _ -> Unix._exit 1);
    Unix._exit 0
  | pid -> (
    Unix.close wr;
    let b = Bytes.create 1 in
    let n = Unix.read rd b 0 1 in
    Unix.close rd;
    match
      if n <> 1 then failwith "daemon exited before it was ready";
      let fd = Client.connect path in
      match Client.call fd Proto.Ping with
      | Proto.Pong _ -> fd
      | _ -> failwith "daemon answered a ping with something else"
    with
    | fd -> (pid, path, fd)
    | exception e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      raise e)

let stop pid path =
  (try ignore (Client.one_shot path Proto.Shutdown) with _ -> Unix.kill pid Sys.sigkill);
  ignore (Unix.waitpid [] pid)

(* --- one pass --------------------------------------------------------------- *)

type reply = {
  item : item;
  idx : int;  (** position in the mix *)
  sent : float;
  recv : float;
  resp : Proto.response;
  raw : string;  (** the response frame's payload *)
}

(* Drive [seq] closed loop over two connections.  Warm traffic (repeats
   and pings) keeps both connections busy; cold work (cells, generated
   sources) goes one request at a time with nothing else in flight.  A
   cold latency is then the cell's own cost, whatever the seeded order
   put next to it, and a warm latency measures the cache path, not the
   slices of a concurrent simulation.  A warm repeat is only sent once
   its cold reply is in. *)
let drive conns seq =
  let n = Array.length seq in
  let done_ = Array.make n false in
  let inflight = Array.make (Array.length conns) None in
  let warm_class it = it.kind = Warm || it.kind = Ping in
  let sendable it =
    (it.kind <> Warm || done_.(it.key))
    && Array.for_all
         (function Some (i, _) -> warm_class it && warm_class seq.(i) | None -> true)
         inflight
  in
  let next = ref 0 and replies = ref [] and completed = ref 0 in
  while !completed < n do
    Array.iteri
      (fun c fd ->
        if inflight.(c) = None && !next < n then begin
          let it = seq.(!next) in
          if sendable it then begin
            let sent = now () in
            Proto.write_frame fd (Proto.encode_request it.req);
            inflight.(c) <- Some (!next, sent);
            incr next
          end
        end)
      conns;
    let busy = List.filter (fun c -> inflight.(c) <> None) [ 0; 1 ] in
    let ready, _, _ = Unix.select (List.map (fun c -> conns.(c)) busy) [] [] (-1.0) in
    List.iter
      (fun c ->
        if List.mem conns.(c) ready then
          match inflight.(c) with
          | Some (idx, sent) ->
            let raw =
              match Proto.read_frame conns.(c) with
              | Some b -> b
              | None -> failwith "daemon closed the connection"
            in
            let recv = now () in
            replies :=
              { item = seq.(idx); idx; sent; recv; resp = Proto.decode_response raw; raw }
              :: !replies;
            done_.(idx) <- true;
            inflight.(c) <- None;
            incr completed
          | None -> ())
      busy
  done;
  List.rev !replies

type pass = {
  seconds : float;
  replies : reply list;
  stats : Proto.stats option;
}

(* One pass on a fresh server. *)
let run_pass dir seq =
  let pid, path, fd0 = start dir in
  let replies, seconds, stats =
    Fun.protect
      ~finally:(fun () -> stop pid path)
      (fun () ->
        let fd1 = Client.connect path in
        let t0 = now () in
        let replies = drive [| fd0; fd1 |] seq in
        let seconds = now () -. t0 in
        let stats = match Client.call fd0 Proto.Stats with Proto.Stats_r s -> Some s | _ -> None in
        Unix.close fd0;
        Unix.close fd1;
        (replies, seconds, stats))
  in
  { seconds; replies; stats }

(* --- checking --------------------------------------------------------------- *)

(* Replies compared byte for byte, with the cache-hit flag cleared: a
   warm reply must equal the cold one it replays. *)
let canonical = function
  | Proto.Sim r -> Proto.encode_response (Proto.Sim { r with cached = false })
  | Proto.Cell_done r -> Proto.encode_response (Proto.Cell_done { r with cached = false })
  | r -> Proto.encode_response r

let is_err = function Proto.Err _ -> true | _ -> false

(* In-process reference replies, computed after the timed passes; the
   time a cold computation took is kept beside it. *)
let reference_engine = lazy (Engine.create ())
let reference_replies : (string, string * float) Hashtbl.t = Hashtbl.create 256

let reference req =
  let k = Proto.encode_request req in
  match Hashtbl.find_opt reference_replies k with
  | Some r -> r
  | None ->
    let resp, dt = time (fun () -> Engine.handle (Lazy.force reference_engine) req) in
    let r = (canonical resp, dt) in
    Hashtbl.add reference_replies k r;
    r

let check ~fail (p : pass) =
  let cold = Hashtbl.create 128 in
  List.iter
    (fun r ->
      match r.item.kind, r.resp with
      | _, resp when is_err resp ->
        fail (Printf.sprintf "request %d answered with an error" r.idx)
      | Ping, Proto.Pong _ -> ()
      | Ping, _ -> fail "ping not answered with pong"
      | Warm, resp -> (
        match Hashtbl.find_opt cold r.item.key with
        | Some c when c = canonical resp -> ()
        | _ -> fail (Printf.sprintf "warm reply %d differs from its cold reply" r.idx))
      | (Cold | Gen), resp ->
        let c = canonical resp in
        Hashtbl.replace cold r.idx c;
        if fst (reference r.item.req) <> c then
          fail (Printf.sprintf "reply %d differs from the in-process computation" r.idx))
    p.replies

(* Each generated source's compiled output under both ISAs must equal
   the reference interpreter's. *)
let check_gen_outputs ~fail progs =
  List.iter
    (fun (p : Progs.prog) ->
      let conv, block = Progs.run_functional (Progs.load p) in
      let reference = Progs.reference_of p in
      if not (Bisa_sim.Output.equal conv reference && Bisa_sim.Output.equal block reference) then
        fail (p.label ^ ": output differs from the reference"))
    progs

(* The traced pass's per-layer split.  Client round trips become
   "request" spans carrying the request's index in the mix; its frames
   are replayed through the codec and its warm cells through an
   in-process engine, under the same ids. *)
let layers p =
  let engine = Lazy.force reference_engine in
  let waits = ref [] in
  List.iter
    (fun r ->
      record_span ~req:r.idx "request" r.sent r.recv;
      span ~req:r.idx "proto_encode" (fun () ->
          ignore (Proto.encode_request r.item.req);
          ignore (Proto.encode_response r.resp));
      let reqb = Proto.encode_request r.item.req in
      span ~req:r.idx "proto_decode" (fun () ->
          ignore (Proto.decode_request reqb);
          ignore (Proto.decode_response r.raw));
      add "proto_frames" 2.0;
      let in_process =
        match r.item.kind with
        | Cold -> Some (snd (reference r.item.req))
        | Warm ->
          let (), dt =
            time (fun () ->
                span ~req:r.idx "engine_hit" (fun () -> ignore (Engine.handle engine r.item.req)))
          in
          add "engine_hits" 1.0;
          Some dt
        | Gen | Ping -> None
      in
      Option.iter (fun dt -> waits := (r.recv -. r.sent -. dt) :: !waits) in_process)
    p.replies;
  set "wait_ms" (mean !waits *. 1e3);
  set "ping_rtt_us"
    (median
       (List.filter_map
          (fun r -> if r.item.kind = Ping then Some ((r.recv -. r.sent) *. 1e6) else None)
          p.replies));
  Option.iter
    (fun (s : Proto.stats) ->
      set "sim_hit_rate" (ratio (float_of_int s.sim_hits) (float_of_int (s.sim_hits + s.sim_misses))))
    p.stats

(* One pass of the mix, checked, with its per-layer split recorded;
   returns the operations attempted. *)
let run ~seed ~fail =
  let dir = Filename.concat !run_dir "daemon" in
  Unix.mkdir dir 0o755;
  match run_pass dir (mix ~seed ~pass:0) with
  | exception e ->
    fail ("daemon pass failed: " ^ Printexc.to_string e);
    1
  | p ->
    check ~fail p;
    check_gen_outputs ~fail (gen_progs ~seed ~pass:0);
    let lat kind =
      List.filter_map
        (fun r -> if r.item.kind = kind then Some ((r.recv -. r.sent) *. 1e3) else None)
        p.replies
    in
    let cold = lat Cold and warm = lat Warm in
    let n = List.length p.replies in
    Printf.printf
      "daemon_mix: seed=%d requests=%d daemon_req_per_s=%.1f cold=%d cold_p50_ms=%.2f warm=%d \
       warm_p50_ms=%.3f warm_p99_ms=%.3f server_rss_kb=%d\n"
      seed n
      (float_of_int n /. p.seconds)
      (List.length cold) (median cold) (List.length warm) (median warm) (tail ~cap:0.99 warm)
      (match p.stats with Some s -> s.rss_kb | None -> 0);
    set "warm_p50_ms" (median warm);
    set "warm_p99_ms" (tail ~cap:0.99 warm);
    (* The pass records its requests' timestamps, so the spans are built
       from it afterwards and cost the pass nothing. *)
    tracing := true;
    layers p;
    tracing := false;
    n
