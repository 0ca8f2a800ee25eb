(* The paper's section-6 program, end to end: every improvement it proposes
   for block-structured ISAs, applied to one workload.

     "Possibilities for achieving these goals include predicated
      execution, profiling, and inlining. ... In addition, using
      block-structured ISAs in conjunction with another fetch rate
      enhancing mechanism, such as the trace cache, may lead to even
      higher fetch rates."

   Run with: dune exec examples/future_work.exe *)

module P = Bisa_timing.Pipeline

(* Prepare a program (verify, predecode, compile to threaded code) and
   time it. *)
let time_block cfg prog = fst (P.Block.run_artifact cfg (P.Block.prepare prog))

let () =
  let w = Bisa_workloads.Workloads.find "gcc" in
  let src = Bisa_workloads.Workloads.source w in
  let cfg = Bisa_timing.Config.default in

  let show label (m : Bisa_timing.Metrics.t) extra =
    Printf.printf "%-34s %9d cycles  %6d mispredicts  mean block %5.2f%s\n" label
      m.cycles m.mispredicts
      (Bisa_timing.Metrics.mean_block_size m)
      extra
  in

  (* The paper's baselines. *)
  let base = Bisa_compiler.Compiler.compile ~library_funcs:w.library_funcs src in
  let conv = P.Conv.prepare base.conv in
  show "conventional" (fst (P.Conv.run_artifact cfg conv)) "";
  let m_base = time_block cfg base.block in
  show "block-structured (paper)" m_base "";
  print_newline ();

  (* Section 6, proposal by proposal. *)
  let pred = Bisa_compiler.Compiler.compile ~ifconvert:true ~library_funcs:w.library_funcs src in
  show "  + predicated execution" (time_block cfg pred.block) "";

  let inl = Bisa_compiler.Compiler.compile ~inline:true ~library_funcs:w.library_funcs src in
  show "  + inlining" (time_block cfg inl.block) "";

  let prof = Bisa_experiments.Profile_guided.compile w in
  let m_prof = time_block cfg prof.block in
  show "  + profile-guided enlargement" m_prof
    (Printf.sprintf "  (code %d -> %d bytes)" base.block.code_bytes prof.block.code_bytes);

  (* And the rival mechanism the paper suggests composing with. *)
  let tc_cfg =
    { cfg with trace_cache = Some Bisa_uarch.Trace_cache.default_config }
  in
  let m_tc = fst (P.Conv.run_artifact tc_cfg conv) in
  show "conventional + trace cache" m_tc
    (Printf.sprintf "  (%d trace hits)" m_tc.tc_hits);

  (* Everything the compiler side offers, together. *)
  let all =
    Bisa_compiler.Compiler.compile ~inline:true ~ifconvert:true
      ~library_funcs:w.library_funcs src
  in
  show "block + predication + inlining" (time_block cfg all.block) ""
