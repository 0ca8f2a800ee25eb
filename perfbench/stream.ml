(* paper_scale_stream: the stream pass of a traced paper_grid run.  One
   long run at paper-scale op counts — the large-footprint gcc surrogate
   at about 80M operations per ISA, on both ISAs — with a checkpoint
   snapshot every million operations and bounded output retention.  It
   is the one load on the session, checkpoint, codec and output-sink
   layers.  It is not an end-to-end workload: on a shared host its wall
   time strayed further from the host-speed probe than the bound
   allows, so it only feeds per-layer metrics.

   [Checkpoint.drive] takes no output cap, so the loop below drives the
   same primitives drive is built from (session, step, save, and
   [Checkpoint.save]) and also times each snapshot interval. *)

module P = Bisa_timing.Pipeline
module Config = Bisa_timing.Config
module Checkpoint = Bisa_timing.Checkpoint
open Util

let scale = 186
let every = 1_000_000
let out_cap = 1024

let prog () = Progs.surrogate ~scale (Bisa_workloads.Workloads.find "gcc")

(* Set-up: compile the stream program and prepare both artifacts
   (verify, predecode, threaded code, content hash). *)
let setup () =
  let p = prog () in
  let c = Bisa_compiler.Compiler.compile ~library_funcs:p.libs p.src in
  ( P.Conv.prepare ~exec:Bisa_sim.Compile.Compiled c.conv,
    P.Block.prepare ~exec:Bisa_sim.Compile.Compiled c.block )

let stream (type p a) (module S : P.S with type prog = p and type artifact = a) ~cfg ~path
    (art : a) =
  let s = S.session_artifact cfg art in
  S.set_out_cap s out_cap;
  let prog_hash = S.Artifact.hash art and cfg_hash = Config.fingerprint cfg in
  let intervals = ref [] and next = ref every and mark = ref (now ()) in
  let saves = ref 0.0 in
  span "stream_run" (fun () ->
      while S.step s do
        if S.ops s >= !next then begin
          let (), dt =
            time (fun () ->
                span "checkpoint_save" (fun () ->
                    Checkpoint.save ~path ~isa:S.isa ~prog_hash ~cfg_hash ~ops:(S.ops s) (S.save s)))
          in
          saves := !saves +. dt;
          if !tracing then begin
            add "checkpoint_bytes" (float_of_int (Unix.stat path).Unix.st_size);
            add "checkpoints" 1.0
          end;
          next := S.ops s + every;
          let t = now () in
          intervals := (t -. !mark) :: !intervals;
          mark := t
        end
      done);
  if Sys.file_exists path then Sys.remove path;
  let metrics, out = S.finish s in
  (metrics, out, List.rev !intervals, !saves)

type pass = {
  seconds : float;
  ops : int;
  outputs : Bisa_sim.Output.t list;
  intervals : float list;  (** seconds per snapshot interval *)
  saves : float;  (** seconds spent writing snapshots *)
}

let pass ~cfg ~dir (conv, block) =
  let t0 = now () in
  let mc, oc, ic, sc = stream (module P.Conv) ~cfg ~path:(Filename.concat dir "conv.ckpt") conv in
  let mb, ob, ib, sb = stream (module P.Block) ~cfg ~path:(Filename.concat dir "block.ckpt") block in
  {
    seconds = now () -. t0;
    ops = mc.retired_ops + mb.retired_ops;
    outputs = [ oc; ob ];
    intervals = ic @ ib;
    saves = sc +. sb;
  }

(* One traced pass, checked against the reference interpreter; returns
   the operations attempted. *)
let run ~fail =
  let cfg = Bisa_experiments.Harness.base_config (Bisa_experiments.Harness.create ()) in
  let arts = setup () in
  tracing := true;
  let p = pass ~cfg ~dir:!run_dir arts in
  tracing := false;
  set "checkpoint_share" (ratio p.saves p.seconds);
  let reference = Progs.reference (prog ()) in
  List.iter
    (fun o ->
      if not (Bisa_sim.Output.equal o reference) then
        fail "stream output differs from the reference")
    p.outputs;
  Printf.printf
    "paper_scale_stream: ops=%d sim_mops_per_s=%.3f snapshot_interval_p50_ms=%.2f \
     checkpoint_share=%.4f\n"
    p.ops
    (float_of_int p.ops /. p.seconds /. 1e6)
    (median p.intervals *. 1e3)
    (ratio p.saves p.seconds);
  2
