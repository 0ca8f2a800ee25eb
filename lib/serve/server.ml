(* The bisad server loop: a single-threaded select loop over a Unix
   domain socket, speaking Proto's length-prefixed frames.

   Dispatch is serial and in submission order, but long work is
   cooperative: a Simulate or Cell miss becomes a suspended Engine job
   the loop advances one bounded operation slice per round, between
   select polls — so a paper-scale simulation never blocks a concurrent
   ping, and a per-request (or server-default) deadline can expire a
   waiter into a structured Err at slice granularity instead of hanging
   it.  Identical in-flight requests attach as extra waiters on one job.
   Parallelism still lives inside the engine (Batch requests shard over
   its pool and are scheduled as one synchronous unit).

   Backpressure is genuine admission control: work-shaped requests are
   refused with a structured busy Err while [max_inflight] jobs are
   suspended, however many rounds they span.  Ping, Stats and Shutdown
   are always admitted — health checks must not starve.

   Failure containment:
     - a payload that fails to decode gets an Err response with the
       Diag's byte offset; the connection survives (framing is intact)
     - a frame whose length prefix is malformed kills only that
       connection — there is nothing left to resynchronize on
     - a connection idle past [idle_timeout] (a slow-loris holding a
       partial frame, a client that wandered off) is evicted, unless it
       is legitimately waiting on its own in-flight job
     - SIGPIPE is ignored; writes to a vanished client just drop the
       connection. *)

module Diag = Bisa_base.Diag
module Proto = Bisa_proto.Proto

let component = "bisad"

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  outbuf : Buffer.t;  (* frames not yet moved into the write window *)
  (* The write window: a persistent byte chunk drained with an offset,
     so a partial write costs a pointer bump, not a fresh copy of the
     whole buffer per retry. *)
  mutable chunk : Bytes.t;
  mutable chunk_pos : int;
  mutable chunk_len : int;
  mutable closing : bool;  (* poisoned: close once output is flushed *)
  mutable dead : bool;  (* dropped; waiter lists prune against this *)
  mutable last_activity : float;
}

(* One request waiting on a job: its connection, and when (if ever) it
   stops being willing to wait.  The deadline belongs to the waiter, not
   the job — the job may outlive an impatient requester if another
   waiter remains. *)
type waiter = { wconn : conn; wdeadline : float; deadline_at : float option }

type active = {
  job : Engine.job;
  norm : Proto.request;  (* deadline-stripped, for exact-duplicate attach *)
  mutable waiters : waiter list;
}

type t = {
  engine : Engine.t;
  path : string;
  listen_fd : Unix.file_descr;
  max_inflight : int;
  deadline : float option;  (* server default for requests that carry none *)
  idle_timeout : float option;
  slice_ops : int;
  mutable conns : conn list;
  mutable jobs : active list;
  mutable cursor : int;  (* rotates which job gets this round's slice *)
  mutable shutting_down : bool;
}

(* Refuse to clobber a live server's socket; replace a stale one. *)
let claim_socket path =
  if Sys.file_exists path then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let alive =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    Unix.close probe;
    if alive then Diag.fail ~component "a server is already listening on %s" path;
    try Sys.remove path with Sys_error _ -> ()
  end

let listen ?(max_inflight = 64) ?deadline ?idle_timeout ?(slice_ops = 32_768)
    ~engine ~path () =
  claim_socket path;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  {
    engine;
    path;
    listen_fd = fd;
    max_inflight;
    deadline;
    idle_timeout;
    slice_ops = max 1 slice_ops;
    conns = [];
    jobs = [];
    cursor = 0;
    shutting_down = false;
  }

let enqueue conn payload = Buffer.add_string conn.outbuf (Proto.frame payload)
let out_pending conn = conn.chunk_len - conn.chunk_pos + Buffer.length conn.outbuf

let drop t conn =
  conn.dead <- true;
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  t.conns <- List.filter (fun c -> c != conn) t.conns

let accept_all t now =
  let rec go () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
      Unix.set_nonblock fd;
      t.conns <-
        {
          fd;
          inbuf = Buffer.create 4096;
          outbuf = Buffer.create 4096;
          chunk = Bytes.create 0;
          chunk_pos = 0;
          chunk_len = 0;
          closing = false;
          dead = false;
          last_activity = now;
        }
        :: t.conns;
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let read_chunk = Bytes.create 65536

(* Returns false if the connection died (EOF or error) and was dropped. *)
let read_available t conn now =
  let rec go () =
    match Unix.read conn.fd read_chunk 0 (Bytes.length read_chunk) with
    | 0 ->
      drop t conn;
      false
    | n ->
      Buffer.add_subbytes conn.inbuf read_chunk 0 n;
      conn.last_activity <- now;
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      drop t conn;
      false
  in
  go ()

(* Peel every complete frame off [conn]'s read buffer.  A bad length
   prefix poisons the connection: answer with the framing Diag, then
   close once it is flushed.  After peeling, anything left is at most
   one partial frame; a remainder beyond the frame cap means the peeler
   has been defeated somehow, and the connection is poisoned rather than
   allowed to grow the buffer without bound. *)
let peel_requests conn =
  let pos = ref 0 in
  let frames = ref [] in
  (try
     let rec go () =
       match Proto.peel_frame conn.inbuf !pos with
       | Some (payload, next) ->
         pos := next;
         frames := payload :: !frames;
         go ()
       | None -> ()
     in
     go ()
   with Diag.Fail d ->
     enqueue conn (Proto.encode_response (Proto.Err [ d ]));
     conn.closing <- true);
  if !pos > 0 then begin
    let rest = Buffer.sub conn.inbuf !pos (Buffer.length conn.inbuf - !pos) in
    Buffer.clear conn.inbuf;
    Buffer.add_string conn.inbuf rest
  end;
  if Buffer.length conn.inbuf > Proto.max_frame + 4 && not conn.closing then begin
    enqueue conn
      (Proto.encode_response
         (Proto.Err
            [
              Diag.error ~component
                (Printf.sprintf "read buffer grew past the %d-byte frame cap"
                   Proto.max_frame);
            ]));
    conn.closing <- true
  end;
  List.rev !frames

let flush_conn t conn now =
  let rec go () =
    (* Refill the write window from the frame buffer once drained. *)
    if conn.chunk_pos = conn.chunk_len && Buffer.length conn.outbuf > 0 then begin
      let len = Buffer.length conn.outbuf in
      if Bytes.length conn.chunk < len then
        conn.chunk <- Bytes.create (max len (2 * Bytes.length conn.chunk));
      Buffer.blit conn.outbuf 0 conn.chunk 0 len;
      Buffer.clear conn.outbuf;
      conn.chunk_pos <- 0;
      conn.chunk_len <- len
    end;
    let pending = conn.chunk_len - conn.chunk_pos in
    if pending > 0 then begin
      match Unix.write conn.fd conn.chunk conn.chunk_pos pending with
      | 0 -> ()
      | n ->
        conn.chunk_pos <- conn.chunk_pos + n;
        conn.last_activity <- now;
        go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
        ()
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
        ->
        drop t conn
    end
  in
  go ()

let flush_writes t now =
  List.iter (fun conn -> if out_pending conn > 0 then flush_conn t conn now) t.conns;
  (* Poisoned connections whose output has drained close now. *)
  List.iter (fun conn -> if conn.closing && out_pending conn = 0 then drop t conn) t.conns

let close_all t =
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns;
  t.conns <- [];
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  try Sys.remove t.path with Sys_error _ -> ()

(* --- the cooperative scheduler ------------------------------------------ *)

let respond conn resp = enqueue conn (Proto.encode_response resp)

(* Two requests share one job exactly when every rendering input matches;
   the deadline is each waiter's own affair and is stripped before
   comparing. *)
let strip_deadline (req : Proto.request) : Proto.request =
  match req with
  | Proto.Simulate s -> Proto.Simulate { s with cfg = { s.cfg with deadline = None } }
  | Proto.Cell c -> Proto.Cell { c with cfg = { c.cfg with deadline = None } }
  | r -> r

let has_waiter t conn =
  List.exists (fun a -> List.exists (fun w -> w.wconn == conn) a.waiters) t.jobs

let dispatch t conn req now =
  match req with
  | Proto.Ping | Proto.Stats -> respond conn (Engine.handle t.engine req)
  | Proto.Shutdown ->
    t.shutting_down <- true;
    respond conn Proto.Bye
  | _ when List.length t.jobs >= t.max_inflight ->
    respond conn
      (Proto.Err
         [ Proto.busy_diag ~inflight:(List.length t.jobs) ~limit:t.max_inflight ])
  | req -> (
    let wdeadline =
      match Proto.request_deadline req with Some d -> Some d | None -> t.deadline
    in
    match Engine.start t.engine req with
    | Engine.Done resp -> respond conn resp
    | Engine.Job job -> (
      let w =
        match wdeadline with
        | None -> { wconn = conn; wdeadline = 0.; deadline_at = None }
        | Some d -> { wconn = conn; wdeadline = d; deadline_at = Some (now +. d) }
      in
      let norm = strip_deadline req in
      match List.find_opt (fun a -> a.norm = norm) t.jobs with
      | Some a ->
        (* An identical request is already in flight: ride it, and drop
           the job just built. *)
        a.waiters <- a.waiters @ [ w ]
      | None ->
        t.jobs <- t.jobs @ [ { job; norm; waiters = [ w ] } ];
        Engine.note_inflight t.engine (List.length t.jobs)))

(* Expire waiters whose deadline has passed (checked before any stepping,
   so a microscopic deadline expires even on a microscopic program) and
   prune waiters whose connection died.  A job nobody is waiting on is
   dropped. *)
let expire_and_prune t now =
  t.jobs <-
    List.filter
      (fun a ->
        let keep, gone =
          List.partition
            (fun w ->
              (not w.wconn.dead)
              && not w.wconn.closing
              &&
              match w.deadline_at with None -> true | Some at -> now < at)
            a.waiters
        in
        List.iter
          (fun w ->
            if (not w.wconn.dead) && not w.wconn.closing then
              respond w.wconn
                (Proto.Err
                   [
                     Proto.deadline_diag ~deadline:w.wdeadline
                       ~ops:(Engine.job_ops a.job);
                   ]))
          gone;
        a.waiters <- keep;
        keep <> [])
      t.jobs

(* One bounded slice for one job, rotating round-robin so concurrent
   jobs share the loop fairly. *)
let step_one t =
  match t.jobs with
  | [] -> ()
  | jobs -> (
    let n = List.length jobs in
    let i = t.cursor mod n in
    t.cursor <- t.cursor + 1;
    let a = List.nth jobs i in
    match Engine.step_job a.job ~slice_ops:t.slice_ops with
    | `More -> ()
    | `Done resp ->
      List.iter
        (fun w -> if (not w.wconn.dead) && not w.wconn.closing then respond w.wconn resp)
        a.waiters;
      t.jobs <- List.filter (fun a' -> a' != a) t.jobs)

let evict_idle t now =
  match t.idle_timeout with
  | None -> ()
  | Some limit ->
    List.iter
      (fun conn ->
        if now -. conn.last_activity > limit && not (has_waiter t conn) then
          drop t conn)
      t.conns

let serve ?max_inflight ?deadline ?idle_timeout ?slice_ops ?on_ready ~engine ~path
    () =
  let previous = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let t = listen ?max_inflight ?deadline ?idle_timeout ?slice_ops ~engine ~path () in
  Option.iter (fun f -> f ()) on_ready;
  let finished = ref false in
  (* After a shutdown request, give sluggish readers a bounded number of
     flush rounds before closing on them.  In-flight jobs are not
     discarded by a deliberate shutdown: the loop keeps slicing them
     until they seal (their own deadlines still apply), and only then
     does the flush grace start counting. *)
  let grace = ref 40 in
  Fun.protect
    ~finally:(fun () ->
      close_all t;
      Sys.set_signal Sys.sigpipe previous)
    (fun () ->
      while not !finished do
        let readable =
          if t.shutting_down then List.map (fun c -> c.fd) t.conns
          else t.listen_fd :: List.map (fun c -> c.fd) t.conns
        in
        let writable =
          List.filter_map
            (fun c -> if out_pending c > 0 then Some c.fd else None)
            t.conns
        in
        (* With suspended jobs the select is a poll: the loop's spare
           time belongs to stepping, and ping latency stays bounded by
           one slice. *)
        let timeout = if t.jobs = [] then 0.5 else 0.0 in
        let rs, _, _ =
          match Unix.select readable writable [] timeout with
          | r -> r
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        let now = Unix.gettimeofday () in
        if List.memq t.listen_fd rs then accept_all t now;
        (* Drain reads, then dispatch this round's complete requests in
           connection order (oldest connection first). *)
        List.iter
          (fun conn ->
            let live =
              if List.memq conn.fd rs && not conn.closing then
                read_available t conn now
              else true
            in
            if live && not conn.closing then
              List.iter
                (fun payload ->
                  match Proto.decode_request payload with
                  | req -> dispatch t conn req now
                  | exception Diag.Fail d -> respond conn (Proto.Err [ d ]))
                (peel_requests conn))
          (List.rev t.conns);
        expire_and_prune t (Unix.gettimeofday ());
        step_one t;
        evict_idle t now;
        flush_writes t (Unix.gettimeofday ());
        if t.shutting_down && t.jobs = [] then begin
          let unflushed = List.exists (fun c -> out_pending c > 0) t.conns in
          decr grace;
          if (not unflushed) || !grace <= 0 then finished := true
        end
      done)
