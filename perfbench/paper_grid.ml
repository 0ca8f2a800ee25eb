(* paper_grid: the full default `experiments` report — tables 1-2,
   figures 3-7 and the extra studies — through [Harness.create],
   [Figures.*] and [Extras.*] with default flags at one worker.  This is
   what the paper's readers re-run; the timing layers and functional
   execution do most of its work. *)

module H = Bisa_experiments.Harness
module Figures = Bisa_experiments.Figures
module Extras = Bisa_experiments.Extras
module Expected = Bisa_experiments.Expected
module W = Bisa_workloads.Workloads
module Config = Bisa_timing.Config
open Util

(* Set-up: a fresh harness with every surrogate compiled, the work the
   report cannot start without.  The compute hook, installed first, logs
   every memo miss with its time. *)
type harness = { h : H.t; events : (string * float) list ref }

let setup () =
  let h = H.create () in
  let events = ref [] in
  H.set_compute_hook h (fun label -> events := (label, now ()) :: !events);
  List.iter (fun w -> ignore (H.compiled h w)) (H.benchmarks h);
  { h; events }

(* The sections of bin/experiments.ml's default report, in its order. *)
let sections { h; _ } =
  let pool = H.pool h in
  [
    ("table1", fun () -> Figures.table1 ());
    ("table2", fun () -> Figures.table2 h);
    ("fig3", fun () -> Figures.fig3 h);
    ("fig4", fun () -> Figures.fig4 h);
    ("fig5", fun () -> Figures.fig5 h);
    ("fig6", fun () -> Figures.fig6 h);
    ("fig7", fun () -> Figures.fig7 h);
    ("prediction_parity", fun () -> Extras.prediction_parity h);
    ("future_scientific", fun () -> Extras.scientific ~pool ());
    ("trace_cache", fun () -> Extras.trace_cache_rivalry ~pool ());
    ("inlining", fun () -> Extras.inlining_study ~pool ());
    ("predication", fun () -> Extras.predication_study ~pool ());
  ]

type pass = {
  text : string;
  seconds : float;
  cells : float list;  (** per-cell latencies, seconds *)
  hook_counts : (string * int) list;
  harness : H.t;
}

(* One report on a set-up harness.  The compute hook fires once per
   memo miss, before the computation; at one worker the time from one
   "run:" cell to the next is that cell's cost, including the artifact
   preparation it pulls in. *)
let report ~fail hs =
  let buf = Buffer.create 65536 in
  let t0 = now () in
  let figs_end = ref t0 in
  List.iter
    (fun (id, thunk) ->
      (match span "report_section" thunk with
      | (r : Figures.report) ->
        Printf.bprintf buf "\n===== %s: %s =====\n%s\n%s\n" r.id r.title r.rendered r.summary
      | exception e -> fail (Printf.sprintf "report section %s: %s" id (Printexc.to_string e)));
      if id = "fig7" then figs_end := now ())
    (sections hs);
  let seconds = now () -. t0 in
  let events = List.rev !(hs.events) in
  let runs =
    List.filter_map
      (fun (l, t) -> if String.starts_with ~prefix:"run:" l && t >= t0 then Some t else None)
      events
  in
  let rec gaps = function
    | a :: (b :: _ as rest) -> (b -. a) :: gaps rest
    | [ a ] -> [ !figs_end -. a ]
    | [] -> []
  in
  let hook_counts =
    List.map
      (fun k ->
        let prefix = k ^ ":" in
        (k, List.length (List.filter (fun (l, _) -> String.starts_with ~prefix l) events)))
      [ "run"; "compile"; "artifact" ]
  in
  { text = Buffer.contents buf; seconds; cells = gaps runs; hook_counts; harness = hs.h }

(* Figure-3/4 mean improvements, recomputed exactly from the harness memo
   the report just filled (every cell is a hit). *)
let mean_gain h predictor =
  let cfg = Config.with_predictor predictor (H.base_config h) in
  mean
    (List.map
       (fun w ->
         let mc = H.run_conv h w cfg and mb = H.run_block h w cfg in
         100.0 *. float_of_int (mc.cycles - mb.cycles) /. float_of_int mc.cycles)
       (H.benchmarks h))

(* Every surrogate the harness simulated, run functionally from the
   harness's own artifacts under both ISAs, must print what the
   reference interpreter prints. *)
let check_outputs h ~fail =
  List.iter
    (fun (w : W.t) ->
      let reference = Progs.reference_of (Progs.surrogate w) in
      let conv = H.artifact_conv h w and block = H.artifact_block h w in
      let oc, _ =
        Bisa_sim.Conv_exec.run (Bisa_timing.Pipeline.Conv.Artifact.prog conv) ()
      and ob, _ =
        Bisa_sim.Block_exec.run (Bisa_timing.Pipeline.Block.Artifact.prog block) ()
      in
      if not (Bisa_sim.Output.equal oc reference) then
        fail (w.name ^ "/conv output differs from the reference");
      if not (Bisa_sim.Output.equal ob reference) then
        fail (w.name ^ "/block output differs from the reference"))
    W.all

let setups = 15

let run ~seconds ~trace ~fail =
  let setup_times = ref [] in
  let timed_setup () =
    let h, dt = time setup in
    setup_times := dt :: !setup_times;
    h
  in
  (* Peak RSS as of the first report: how many more reports fit in the
     run depends on the host's speed, and each holds its own harness. *)
  let first_rss = ref 0 in
  let first_h, ps =
    probed (fun () ->
        for _ = 2 to setups do
          ignore (timed_setup ())
        done;
        let first_h = timed_setup () in
        (* Whole reports while another fits in the run's time; each
           report after the first starts from its own fresh set-up. *)
        let unused = ref (Some first_h) in
        ( first_h,
          repeat ~seconds ~min:1 (fun () ->
              match !unused with
              | Some h ->
                unused := None;
                let p = report ~fail h in
                first_rss := peak_rss_kb ();
                p
              | None -> report ~fail (timed_setup ())) ))
  in
  let rss = !first_rss in
  let pass_s = median (List.map (fun p -> p.seconds) ps) in
  (* The traced pass runs after the untraced ones, on a fresh harness;
     its report time against theirs is the tracing overhead. *)
  if trace then begin
    tracing := true;
    let p = span "setup" setup |> report ~fail in
    tracing := false;
    set "trace_overhead" (ratio (p.seconds -. pass_s) pass_s);
    if p.text <> (List.hd ps).text then fail "traced report text differs"
  end;
  let first = List.hd ps in
  List.iter (fun p -> if p.text <> first.text then fail "report text differs between passes") ps;
  check_outputs first.harness ~fail;
  let gap predictor paper = Float.abs (mean_gain first.harness predictor -. paper) in
  let fig3_gap = gap Config.Real Expected.fig3_mean_improvement_pct
  and fig4_gap = gap Config.Perfect Expected.fig4_mean_improvement_pct in
  set "fig3_gap_pp" fig3_gap;
  set "fig4_gap_pp" fig4_gap;
  List.iter (fun (k, n) -> set ("hook_" ^ k) (float_of_int n)) first.hook_counts;
  let cells = List.concat_map (fun p -> p.cells) ps in
  Printf.printf
    "paper_grid: report_s=%.3f reports=%d cells=%d fig3_gap_pp=%.4f fig4_gap_pp=%.4f\n" pass_s
    (List.length ps) (List.length cells) fig3_gap fig4_gap;
  {
    attempted = List.length ps * (List.length (sections first_h) + List.length W.all);
    setup_s = !setup_times;
    pass_s = List.map (fun p -> p.seconds) ps;
    cold_ms = List.map (fun s -> s *. 1e3) cells;
    peak_rss_kb = float_of_int rss;
  }
