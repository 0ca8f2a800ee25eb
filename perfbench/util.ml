(* Measurement helpers shared by every workload: the host-speed probe and
   the clock that leaves it out, order statistics, the in-memory span
   recorder, peak RSS, and the result line. *)

(* --- host speed ------------------------------------------------------------

   A shared host runs the same single-threaded work up to ~50% slower
   from one minute to the next, with process CPU time tracking wall time:
   the core itself slows, through contention for its private caches and
   its execution units.  So a run interleaves a fixed probe with its
   work — a random read-modify-write walk over a 2 MB array, the size of
   one core's L2, then a branchy dispatch loop like an interpreter's —
   and reports every time scaled to the probe's reference speed (see
   [host_scale]).  The probe is not part of the program and allocates
   nothing, so a change to the program cannot move it. *)

let probe_words = 1 lsl 18
let probe_iters = 1_500_000
let probe_steps = 8_000_000

(* The probe's median duration on the reference host (2-vCPU Xeon,
   model 207, 2 MB L2 per core); times are reported in seconds at this
   speed. *)
let probe_ref_s = 0.0550

let probe_array = lazy (Array.init probe_words (fun i -> (i * 7919) land (probe_words - 1)))

(* Bring the array back into the cache the program evicted it from, so
   a sample does not depend on how much of it the program's own working
   set displaced. *)
let probe_warm () =
  let a = Lazy.force probe_array in
  let s = ref 0 in
  for i = 0 to probe_words - 1 do
    s := !s + Array.unsafe_get a i
  done;
  ignore (Sys.opaque_identity !s)

let probe_walk () =
  let a = Lazy.force probe_array in
  let mask = probe_words - 1 in
  let s = ref 0 and x = ref 12345 in
  for _ = 1 to probe_iters do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let i = (!x lxor !s) land mask in
    s := !s + Array.unsafe_get a i;
    Array.unsafe_set a ((i + 1) land mask) !s
  done;
  ignore (Sys.opaque_identity !s)

(* A small register machine stepping through a fixed pseudo-random
   program from the same state every time: unpredictable branches on a
   working set that fits in L1. *)
let probe_code = Array.init 4096 (fun i -> (i * 2654435761) land 7)

let probe_dispatch () =
  let code = probe_code and regs = Array.make 16 1 in
  let pc = ref 0 and acc = ref 0 in
  for _ = 1 to probe_steps do
    let op = Array.unsafe_get code !pc in
    (match op with
    | 0 -> acc := !acc + Array.unsafe_get regs (!pc land 15)
    | 1 -> Array.unsafe_set regs (!acc land 15) !acc
    | 2 -> acc := !acc lxor (!pc lsl 3)
    | 3 -> if !acc land 1 = 0 then acc := !acc lsr 1 else acc := (3 * !acc) + 1
    | 4 -> acc := !acc - Array.unsafe_get regs ((!acc lsr 4) land 15)
    | 5 -> Array.unsafe_set regs 5 (Array.unsafe_get regs 5 + 1)
    | 6 -> acc := (!acc * 31) land 0xffffff
    | _ -> acc := !acc + 7);
    pc := (!pc + 1 + (!acc land 1)) land 4095
  done;
  ignore (Sys.opaque_identity !acc)

let probe_kernel () =
  probe_walk ();
  probe_dispatch ()

let probe_spent = ref 0.0 (* seconds spent in the probe so far *)
let probe_samples : float list ref = ref []
let probing = ref false

let probe () =
  if not !probing then begin
    probing := true;
    let t0 = Unix.gettimeofday () in
    probe_warm ();
    let t1 = Unix.gettimeofday () in
    probe_kernel ();
    let t2 = Unix.gettimeofday () in
    probe_spent := !probe_spent +. (t2 -. t0);
    probe_samples := (t2 -. t1) :: !probe_samples;
    probing := false
  end

(* After every second of the process's CPU time a SIGVTALRM runs the
   probe.  The virtual timer only runs while this process executes its
   own code, so the signal does not interrupt a blocking call. *)
let probe_period = 1.0

let start_probing () =
  Sys.set_signal Sys.sigvtalrm (Sys.Signal_handle (fun _ -> probe ()));
  ignore
    (Unix.setitimer Unix.ITIMER_VIRTUAL
       { Unix.it_interval = probe_period; it_value = probe_period })

let stop_probing () =
  ignore (Unix.setitimer Unix.ITIMER_VIRTUAL { Unix.it_interval = 0.0; it_value = 0.0 });
  Sys.set_signal Sys.sigvtalrm Sys.Signal_default

(* Run a workload's timed region with the probe on, starting with one
   sample. *)
let probed f =
  probe ();
  start_probing ();
  Fun.protect ~finally:stop_probing f

(* The wall clock minus the time spent in the probe, so an interval
   never includes a probe that ran inside it.  Re-read if a probe ran
   between the two reads. *)
let rec now () =
  let spent = !probe_spent in
  let t = Unix.gettimeofday () in
  if Float.equal spent !probe_spent then t -. spent else now ()

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* --- order statistics ---------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks. *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* The highest percentile, capped at [cap], that still leaves at least
   ten samples beyond it: p90 needs 100 samples, p99 needs 1000.  With
   fewer samples the reported tail is the deepest one the data supports. *)
let tail_q ~cap n = Float.min cap (1.0 -. (10.0 /. float_of_int (max n 10)))

let tail ~cap xs = quantile (tail_q ~cap (List.length xs)) xs

(* Reference probe time over this run's median probe time: a time
   measured here, times this, is the time at the reference host speed. *)
let host_scale () =
  match !probe_samples with [] -> 1.0 | xs -> probe_ref_s /. median xs

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* --- peak resident set --------------------------------------------------- *)

let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec go () =
      match input_line ic with
      | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
      | _ -> go ()
      | exception End_of_file -> 0
    in
    Fun.protect ~finally:(fun () -> close_in ic) go

(* --- spans ----------------------------------------------------------------

   A span brackets one call from the benchmark into a layer of the
   program.  Spans stay in memory while the workload runs and are written
   out once at exit; with tracing off [span] is a single branch. *)

type span = {
  id : int;
  parent : int;  (** 0 = root *)
  req : int;  (** request id for daemon traffic, 0 otherwise *)
  name : string;
  t0 : float;
  t1 : float;
}

let tracing = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let span ?(req = 0) name f =
  if not !tracing then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let t0 = now () in
    let finish () =
      let t1 = now () in
      stack := List.tl !stack;
      spans := { id; parent; req; name; t0; t1 } :: !spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* A span whose interval was measured elsewhere (a request on one of
   several open connections), parented to the innermost open span. *)
let record_span ?(req = 0) name t0 t1 =
  if !tracing then begin
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    spans := { id = !next_id; parent; req; name; t0; t1 } :: !spans
  end

(* Total duration and self time (duration minus the time covered by
   direct children) per span name. *)
let span_totals () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let covered = Option.value ~default:0.0 (Hashtbl.find_opt child s.parent) in
      Hashtbl.replace child s.parent (d +. covered))
    !spans;
  let tot = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let self = d -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      let n, td, ts = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tot s.name) in
      Hashtbl.replace tot s.name (n + 1, td +. d, ts +. self))
    !spans;
  tot

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"name\":%S,\"start\":%.6f,\"end\":%.6f,\"id\":%d,\"parent\":%d,\"req\":%d}\n"
        s.name s.t0 s.t1 s.id s.parent s.req)
    (List.rev !spans);
  close_out oc

(* --- what a workload run hands back ----------------------------------------- *)

type outcome = {
  attempted : int;  (** operations attempted; failures are counted by [fail] *)
  setup_s : float list;  (** every set-up, seconds *)
  pass_s : float list;  (** every pass over the workload's fixed work, seconds *)
  cold_ms : float list;  (** every unit of fresh work, milliseconds *)
  peak_rss_kb : float;
}

(* Repeat a pass while another one of the mean length so far still fits
   in [seconds], and at least [min] times. *)
let repeat ~seconds ~min pass =
  let t0 = now () in
  let rec go acc n =
    let acc = pass () :: acc in
    let n = n + 1 in
    let elapsed = now () -. t0 in
    if n < min || elapsed +. (elapsed /. float_of_int n) <= seconds then go acc n else List.rev acc
  in
  go [] 0

(* --- accumulated per-layer values -------------------------------------------

   Counts and sizes the workloads record beside their spans, read back
   when the per-layer metrics are derived.  Like spans, [add] only counts
   while tracing, so a count and the span time it divides always cover
   the same calls. *)

let values : (string, float) Hashtbl.t = Hashtbl.create 64
let set name v = Hashtbl.replace values name v
let get name = Option.value ~default:0.0 (Hashtbl.find_opt values name)
let add name v = if !tracing then set name (get name +. v)

(* --- the result line ------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value)
          x.unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " fields)

(* --- scratch space inside the checkout ----------------------------------- *)

let scratch_root = ".perfbench"

let mkdir_p d = if not (Sys.file_exists d) then Unix.mkdir d 0o755

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

(* This run's own directory under the scratch root, created by
   [make_run_dir] and removed by the caller when the run ends. *)
let run_dir = ref ""

let make_run_dir () =
  mkdir_p scratch_root;
  run_dir := Filename.concat scratch_root (Printf.sprintf "run-%d" (Unix.getpid ()));
  rm_rf !run_dir;
  Unix.mkdir !run_dir 0o755
