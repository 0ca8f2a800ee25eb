(* Predictor study: the conventional two-level predictor vs the paper's
   modified block predictor, across the benchmark surrogates — reproducing
   the section-5 observation that both executables suffer about the same
   number of mispredictions while the block-structured ones pay more per
   event (whole-block fault squashes).

   Run with: dune exec examples/predictor_duel.exe *)

module P = Bisa_timing.Pipeline

let () =
  let cfg = Bisa_timing.Config.default in
  Printf.printf "%-10s | %21s | %31s\n" "benchmark" "conventional"
    "block-structured";
  Printf.printf "%-10s | %10s %10s | %10s %10s %9s\n" "" "mispred" "/kop" "mispred"
    "/kop" "squashes";
  Printf.printf "%s\n" (String.make 70 '-');
  List.iter
    (fun (w : Bisa_workloads.Workloads.t) ->
      let c = Bisa_workloads.Workloads.compile w in
      let mc, _ = P.Conv.run_artifact cfg (P.Conv.prepare c.conv) in
      let mb, _ = P.Block.run_artifact cfg (P.Block.prepare c.block) in
      Printf.printf "%-10s | %10d %10.1f | %10d %10.1f %9d\n" w.name mc.mispredicts
        (Bisa_timing.Metrics.mispredict_rate_per_kop mc)
        mb.mispredicts
        (Bisa_timing.Metrics.mispredict_rate_per_kop mb)
        mb.fault_squash_redirects)
    Bisa_workloads.Workloads.all;
  print_newline ();
  (* The history ablation: why the predictor shifts in only log2(#succ)
     bits per block (modification 3). *)
  print_endline "history policy (m88ksim): variable shift (paper) vs naive 3-bit shift";
  let w = Bisa_workloads.Workloads.find "m88ksim" in
  let block = P.Block.prepare (Bisa_workloads.Workloads.compile w).block in
  List.iter
    (fun (label, naive) ->
      let cfg =
        { cfg with block_pred = { cfg.block_pred with naive_history = naive } }
      in
      let m, _ = P.Block.run_artifact cfg block in
      Printf.printf "  %-18s %8d cycles, %6d mispredicts\n" label m.cycles m.mispredicts)
    [ ("variable (paper)", false); ("naive 3-bit", true) ]
