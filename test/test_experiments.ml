(* Experiment-harness tests: static reports, run caching, and the paper's
   headline directions on one fast benchmark. *)

module Figures = Bisa_experiments.Figures
module Harness = Bisa_experiments.Harness

let test_table1_is_paper () =
  let r = Figures.table1 () in
  Alcotest.(check string) "id" "table1" r.id;
  List.iter
    (fun fragment ->
      Alcotest.(check bool) fragment true
        (Astring_free.contains_substring r.rendered fragment))
    [ "Integer"; "FP/INT Div"; "Bit Field"; "Memory loads"; "8"; "Control instructions" ]

let test_expected_values () =
  Alcotest.(check (float 1e-9)) "fig3 mean" 12.3
    Bisa_experiments.Expected.fig3_mean_improvement_pct;
  Alcotest.(check int) "table2 rows" 8 (List.length Bisa_experiments.Expected.table2);
  Alcotest.(check (float 1e-9)) "fig5 conv" 5.2
    Bisa_experiments.Expected.fig5_conv_mean_block

let test_harness_caching () =
  let h = Harness.create ~scale:1 () in
  let w = Bisa_workloads.Workloads.find "m88ksim" in
  let cfg = Harness.base_config h in
  let t0 = Unix.gettimeofday () in
  let m1 = Harness.run_conv h w cfg in
  let t1 = Unix.gettimeofday () in
  let m2 = Harness.run_conv h w cfg in
  let t2 = Unix.gettimeofday () in
  Alcotest.(check bool) "same object" true (m1 == m2);
  Alcotest.(check bool) "cached run is instant" true (t2 -. t1 < (t1 -. t0) /. 10.0 +. 0.01);
  (* Configurations that differ in any timing field are distinct cells,
     not only those that differ in icache or predictor. *)
  let slow = { cfg with Bisa_timing.Config.redirect_penalty = cfg.redirect_penalty + 8 } in
  let m3 = Harness.run_conv h w slow in
  Alcotest.(check bool) "redirect penalty is a distinct cell" false (m3 == m1);
  Alcotest.(check bool) "redirect penalty costs cycles" true (m3.cycles > m1.cycles)

let test_headline_direction () =
  (* m88ksim is the paper's biggest winner; even at scale 1 the
     block-structured core must win it. *)
  let h = Harness.create ~scale:1 () in
  let w = Bisa_workloads.Workloads.find "m88ksim" in
  let cfg = Harness.base_config h in
  let mc = Harness.run_conv h w cfg in
  let mb = Harness.run_block h w cfg in
  Alcotest.(check bool) "block wins m88ksim" true (mb.cycles < mc.cycles);
  (* Figure 5's direction: enlarged blocks are bigger. *)
  Alcotest.(check bool) "bigger blocks" true
    (Bisa_timing.Metrics.mean_block_size mb > Bisa_timing.Metrics.mean_block_size mc)

let test_sweep_shape () =
  let h = Harness.create () in
  Alcotest.(check int) "three sweep points" 3 (List.length (Harness.sweep_caches h));
  let hp = Harness.create ~paper_caches:true () in
  let labels = List.map fst (Harness.sweep_caches hp) in
  Alcotest.(check (list string)) "paper sizes" [ "16KB"; "32KB"; "64KB" ] labels

let test_chunks () =
  Alcotest.(check (list (list int)))
    "even split"
    [ [ 1; 2 ]; [ 3; 4 ]; [ 5; 6 ] ]
    (Harness.chunks 2 [ 1; 2; 3; 4; 5; 6 ]);
  Alcotest.(check (list (list int))) "empty list" [] (Harness.chunks 3 []);
  let raises what f =
    Alcotest.(check bool) what true
      (match f () with
      | (_ : int list list) -> false
      | exception Invalid_argument _ -> true)
  in
  raises "zero group size" (fun () -> Harness.chunks 0 [ 1; 2 ]);
  raises "negative group size" (fun () -> Harness.chunks (-3) [ 1; 2 ]);
  raises "ragged grid" (fun () -> Harness.chunks 2 [ 1; 2; 3 ])

(* --- campaign resume ---------------------------------------------------- *)

module Campaign = Bisa_experiments.Campaign

let fresh_dir () =
  let d = Filename.temp_file "bisa_campaign" "" in
  Sys.remove d;
  d

(* A tiny real grid through the harness (which routes every timing run
   through the campaign when one is attached). *)
let grid_report ~pool campaign =
  let h = Harness.create ~scale:1 ~pool ?campaign () in
  let w = Bisa_workloads.Workloads.find "li" in
  let cfg = Harness.base_config h in
  let runs =
    Bisa_base.Pool.map_list pool
      (fun f -> f ())
      [
        (fun () -> Harness.run_conv h w cfg);
        (fun () -> Harness.run_block h w cfg);
        (fun () ->
          Harness.run_conv h w
            (Bisa_timing.Config.with_predictor Bisa_timing.Config.Perfect cfg));
      ]
  in
  String.concat "\n"
    (List.map (fun m -> Bisa_timing.Metrics.summary ~name:"cell" m) runs)

let test_campaign_resume_identical () =
  (* A fresh campaign, a reopened campaign, and no campaign at all must
     agree byte-for-byte — sequentially and at four workers. *)
  Bisa_base.Pool.run ~workers:1 @@ fun seq ->
  Bisa_base.Pool.run ~workers:4 @@ fun par ->
  let golden = grid_report ~pool:seq None in
  let d = fresh_dir () in
  let open_c () =
    Some (Campaign.open_ ~dir:d ~checkpoint_every:500 ~scale:(Some 1) ~paper_caches:false ())
  in
  Alcotest.(check string) "campaign run matches direct run" golden
    (grid_report ~pool:seq (open_c ()));
  Alcotest.(check string) "reopened campaign reuses cells" golden
    (grid_report ~pool:seq (open_c ()));
  Alcotest.(check string) "parallel resume is byte-identical" golden
    (grid_report ~pool:par (open_c ()));
  let done_cells =
    Sys.readdir (Filename.concat d "cells")
    |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".done")
  in
  Alcotest.(check int) "three distinct cells persisted" 3 (List.length done_cells)

let test_campaign_meta_mismatch () =
  let d = fresh_dir () in
  let _ =
    Campaign.open_ ~dir:d ~scale:(Some 1) ~paper_caches:false ()
  in
  Alcotest.(check bool) "different settings are rejected" true
    (match Campaign.open_ ~dir:d ~scale:(Some 7) ~paper_caches:true () with
    | (_ : Campaign.t) -> false
    | exception Bisa_base.Diag.Fail _ -> true)

let test_campaign_timeout () =
  let d = fresh_dir () in
  (* An impossible budget: the deadline fires on the first poll window. *)
  let camp =
    Campaign.open_ ~dir:d ~checkpoint_every:500 ~timeout_s:(-1.0) ~scale:(Some 1)
      ~paper_caches:false ()
  in
  let c = Bisa_compiler.Compiler.compile "int main() { int i; int s = 0; for (i = 0; i < 4000; i = i + 1) { s = s + i; } return s & 255; }" in
  let cfg = Bisa_timing.Config.default in
  let art = Bisa_timing.Pipeline.Conv.prepare c.conv in
  (match
     Campaign.run_cell camp (module Bisa_timing.Pipeline.Conv) ~bench:"slow" cfg art
   with
  | (_ : Bisa_timing.Metrics.t) -> Alcotest.fail "a negative budget cannot finish"
  | exception Campaign.Timed_out { key; ops } ->
    Alcotest.(check bool) "ops reported" true (ops >= 0);
    Alcotest.(check bool) "timeout marker written" true
      (Sys.file_exists (Filename.concat (Filename.concat d "cells") (key ^ ".timeout")));
    Alcotest.(check bool) "snapshot kept for retry" true
      (Sys.file_exists (Filename.concat (Filename.concat d "cells") (key ^ ".ckpt"))));
  (* Lifting the budget finishes the cell from its snapshot and clears
     the stale timeout marker. *)
  let camp2 =
    Campaign.open_ ~dir:d ~checkpoint_every:500 ~scale:(Some 1) ~paper_caches:false ()
  in
  let m = Campaign.run_cell camp2 (module Bisa_timing.Pipeline.Conv) ~bench:"slow" cfg art in
  let m_direct, _ = Bisa_timing.Pipeline.Conv.run_artifact cfg art in
  Alcotest.(check string) "retry result == direct run"
    (Bisa_timing.Metrics.summary ~name:"x" m_direct)
    (Bisa_timing.Metrics.summary ~name:"x" m);
  let key =
    Campaign.key ~bench:"slow" ~isa:"conv"
      ~cfg_hash:(Bisa_timing.Config.fingerprint cfg)
      ~prog_hash:(Bisa_timing.Pipeline.Conv.prog_hash c.conv)
  in
  let cell ext = Filename.concat (Filename.concat d "cells") (key ^ ext) in
  Alcotest.(check bool) "timeout marker cleared" false (Sys.file_exists (cell ".timeout"));
  Alcotest.(check bool) "snapshot deleted" false (Sys.file_exists (cell ".ckpt"));
  Alcotest.(check bool) "manifest written" true (Sys.file_exists (cell ".done"))

(* Threaded code is the studies' executor; the interpreter survives only
   as their reference leg.  Both must render the same report, byte for
   byte (compress keeps it fast; predication compiles and simulates its
   own program variants, trace-cache rivalry shares one conv artifact
   across two configurations). *)
let test_studies_identical_on_reference_leg () =
  let render reference =
    let module E = Bisa_experiments.Extras in
    let tc = E.trace_cache_rivalry ~workloads:[ "compress" ] ~reference () in
    let pred = E.predication_study ~workloads:[ "compress" ] ~reference () in
    String.concat "\n" [ tc.rendered; tc.summary; pred.rendered; pred.summary ]
  in
  Alcotest.(check string) "compiled render == interpreter render" (render true) (render false)

let suite =
  [
    Alcotest.test_case "table1" `Quick test_table1_is_paper;
    Alcotest.test_case "expected values" `Quick test_expected_values;
    Alcotest.test_case "harness caching" `Slow test_harness_caching;
    Alcotest.test_case "headline direction" `Slow test_headline_direction;
    Alcotest.test_case "sweep shape" `Quick test_sweep_shape;
    Alcotest.test_case "chunks" `Quick test_chunks;
    Alcotest.test_case "campaign resume identical" `Slow test_campaign_resume_identical;
    Alcotest.test_case "campaign meta mismatch" `Quick test_campaign_meta_mismatch;
    Alcotest.test_case "campaign timeout" `Quick test_campaign_timeout;
    Alcotest.test_case "studies identical on the reference leg" `Slow
      test_studies_identical_on_reference_leg;
  ]
