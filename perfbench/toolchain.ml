(* toolchain: compile and load many distinct programs.  The set is
   seeded generated programs plus the eight surrogates under the
   ablation study's enlargement configurations, so static footprints
   range from about 1 KB to 74 KB.  Every program goes through the whole
   load chain and one short functional run per ISA; the timing
   simulators do no work here, so this workload is the no-change control
   for timing-engine changes. *)

open Util

let generated_per_pass = 32

(* Set-up is seed expansion: drawing and rendering the generated
   programs and building every surrogate source. *)
let expand ~seed () =
  Progs.generated ~seed generated_per_pass
  @ List.concat_map
      (fun w ->
        List.map (fun variant -> Progs.surrogate ~scale:1 ~variant w) Progs.enlargement_variants)
      Bisa_workloads.Workloads.all

let one (p : Progs.prog) = span "program" (fun () -> Progs.run_functional (Progs.load p))

type pass = {
  seconds : float;
  per_prog : float list;  (** seconds per program *)
  outputs : (Progs.prog * (Bisa_sim.Output.t * Bisa_sim.Output.t) option) list;
}

let pass ~fail progs =
  let t0 = now () in
  let attempt (p : Progs.prog) () =
    match one p with
    | o -> Some o
    | exception e ->
      fail (p.label ^ ": " ^ Printexc.to_string e);
      None
  in
  let results =
    List.map
      (fun p ->
        let r, dt = time (attempt p) in
        (p, r, dt))
      progs
  in
  {
    seconds = now () -. t0;
    per_prog = List.map (fun (_, _, dt) -> dt) results;
    outputs = List.map (fun (p, r, _) -> (p, r)) results;
  }

let setups = 50

let run ~seed ~seconds ~trace ~fail =
  let setup_times = ref [] in
  let progs = ref [] in
  let traced = ref [] in
  let ps =
    probed (fun () ->
        for _ = 1 to setups do
          let ps, dt = time (expand ~seed) in
          setup_times := dt :: !setup_times;
          progs := ps
        done;
        (* Passes while another fits in the run's time.  A traced run
           follows each untraced pass with a traced one, so both see the
           same machine state. *)
        repeat ~seconds ~min:1 (fun () ->
            let p = pass ~fail !progs in
            if trace then begin
              tracing := true;
              traced := pass ~fail !progs :: !traced;
              tracing := false
            end;
            p))
  in
  let progs = !progs in
  let traced = !traced in
  let rss = peak_rss_kb () in
  let pass_s = median (List.map (fun p -> p.seconds) ps) in
  if trace then
    set "trace_overhead" (ratio (median (List.map (fun p -> p.seconds) traced) -. pass_s) pass_s);
  (* Outputs are checked after timing, against the reference
     interpreter. *)
  List.iter
    (fun p ->
      List.iter
        (fun ((prog : Progs.prog), r) ->
          match r with
          | None -> ()
          | Some (conv, block) ->
            let reference = Progs.reference_of prog in
            if not (Bisa_sim.Output.equal conv reference) then
              fail (prog.label ^ "/conv output differs from the reference");
            if not (Bisa_sim.Output.equal block reference) then
              fail (prog.label ^ "/block output differs from the reference"))
        p.outputs)
    (ps @ traced);
  let n = List.length progs in
  Printf.printf "toolchain: seed=%d programs=%d passes=%d programs_per_s=%.2f\n" seed n
    (List.length ps) (float_of_int n /. pass_s);
  {
    attempted = n * List.length (ps @ traced);
    setup_s = !setup_times;
    pass_s = List.map (fun p -> p.seconds) ps;
    cold_ms = List.concat_map (fun p -> List.map (fun s -> s *. 1e3) p.per_prog) ps;
    peak_rss_kb = float_of_int rss;
  }

(* The ledger's share of the set: every surrogate plus a slice of the
   generated programs. *)
let ledger_progs ~seed =
  List.map (Progs.surrogate ~scale:1) Bisa_workloads.Workloads.all @ Progs.generated ~seed 8
