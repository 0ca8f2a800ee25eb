(* The repository's benchmark driver.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   runs one workload for about S seconds and prints, as the last line of
   standard output, one JSON object: whether every output was correct,
   the operations attempted and failed, and the end-to-end metrics
   (--trace 0) or the per-layer metrics (--trace 1).  See README.md in
   this directory for the workloads, the metrics and how they relate. *)

open Util

let workloads = [ "paper_grid"; "toolchain" ]

(* Times are reported at the reference host speed (Util.host_scale). *)
let end_to_end (o : outcome) =
  let k = host_scale () in
  [
    m "setup_s" "s" (k *. median o.setup_s);
    m "pass_s" "s" (k *. median o.pass_s);
    m "cold_p50_ms" "ms" (k *. median o.cold_ms);
    m "cold_p90_ms" "ms" (k *. tail ~cap:0.90 o.cold_ms);
    m "peak_rss_kb" "KB" o.peak_rss_kb;
  ]

let usage () =
  prerr_endline
    ("usage: perfbench --workload (" ^ String.concat "|" workloads
   ^ ") --seed N --seconds S --trace 0|1");
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let exact_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Int (fun t -> trace := t <> 0), "0|1 per-layer traced run");
      ( "--exact-out",
        Arg.Set_string exact_out,
        "FILE with --trace 1, also write the exact counters to FILE" );
    ]
    (fun _ -> usage ())
    "perfbench";
  if not (List.mem !workload workloads) then usage ();
  let seed = !seed and seconds = !seconds and trace = !trace in
  let failed = ref 0 in
  let fail msg =
    incr failed;
    Printf.eprintf "perfbench: FAILED %s\n%!" msg
  in
  make_run_dir ();
  let ledger progs =
    if trace then begin
      tracing := true;
      let cfg = Bisa_experiments.Harness.base_config (Bisa_experiments.Harness.create ()) in
      let rows = Ledger.run ~cfg ~fail progs in
      tracing := false;
      List.iter (Printf.printf "ledger %s\n") rows
    end
  in
  let outcome =
    Fun.protect
      ~finally:(fun () -> rm_rf !run_dir)
      (fun () ->
        match !workload with
        | "paper_grid" ->
          let o = Paper_grid.run ~seconds ~trace ~fail in
          ledger (List.map (fun w -> Progs.surrogate w) Bisa_workloads.Workloads.all);
          (* The session and checkpoint layers are measured on one
             paper-scale stream pass, after the timed region. *)
          if trace then { o with attempted = o.attempted + Stream.run ~fail } else o
        | "toolchain" ->
          let o = Toolchain.run ~seed ~seconds ~trace ~fail in
          ledger (Toolchain.ledger_progs ~seed);
          (* The daemon's layers are measured on one pass of its request
             mix, after the timed region. *)
          if trace then { o with attempted = o.attempted + Daemon_mix.run ~seed ~fail } else o
        | _ -> usage ())
  in
  if trace then
    write_spans (Filename.concat scratch_root (Printf.sprintf "trace-%s-%d.jsonl" !workload seed));
  Printf.printf "workload=%s seed=%d seconds=%g trace=%b\n" !workload seed seconds trace;
  Printf.printf
    "host: probes=%d probe_median_ms=%.3f host_scale=%.4f; as measured: setup_s=%.5f pass_s=%.4f \
     cold_p50_ms=%.3f cold_p90_ms=%.3f\n"
    (List.length !probe_samples)
    (median !probe_samples *. 1e3)
    (host_scale ()) (median outcome.setup_s) (median outcome.pass_s) (median outcome.cold_ms)
    (tail ~cap:0.90 outcome.cold_ms);
  let metrics = if trace then Ledger.metrics () else end_to_end outcome in
  if trace && !exact_out <> "" then begin
    let oc = open_out !exact_out in
    List.iter
      (fun x -> if List.mem x.name Ledger.exact then Printf.fprintf oc "%s %.17g\n" x.name x.value)
      metrics;
    close_out oc
  end;
  List.iter (fun x -> Printf.printf "  %-34s %14.6g %s\n" x.name x.value x.unit_) metrics;
  print_endline
    (result_line ~correct:(!failed = 0) ~attempted:(max 1 outcome.attempted) ~failed:!failed metrics)
