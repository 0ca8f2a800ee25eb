(* Code expansion vs icache size (the figures 6/7 mechanism): block
   enlargement duplicates blocks, so the block-structured executable is
   ~2x the conventional size and loses more when the icache shrinks —
   worst for big-footprint, unbiased-branch code like the gcc and go
   surrogates.

   Run with: dune exec examples/icache_pressure.exe *)

module P = Bisa_timing.Pipeline

let sizes_kb = [ 2; 4; 8; 16 ]

let () =
  List.iter
    (fun name ->
      let w = Bisa_workloads.Workloads.find name in
      let c = Bisa_workloads.Workloads.compile w in
      Printf.printf "%s: conventional %d bytes of code, block-structured %d (%.2fx)\n"
        name
        (Bisa_isa.Conv_prog.code_bytes c.conv)
        c.block.code_bytes
        (float_of_int c.block.code_bytes
        /. float_of_int (Bisa_isa.Conv_prog.code_bytes c.conv));
      (* Prepared once, timed under every icache size. *)
      let conv = P.Conv.prepare c.conv and block = P.Block.prepare c.block in
      let run cfg = (fst (P.Conv.run_artifact cfg conv), fst (P.Block.run_artifact cfg block)) in
      let perfect =
        let mc, mb = run { Bisa_timing.Config.default with icache = None } in
        (mc.cycles, mb.cycles)
      in
      List.iter
        (fun kb ->
          let cfg =
            {
              Bisa_timing.Config.default with
              icache = Some { Bisa_uarch.Cache.size_bytes = kb * 1024; assoc = 4; line_bytes = 32 };
            }
          in
          let mc, mb = run cfg in
          let rel m base = float_of_int (m - base) /. float_of_int base in
          Printf.printf
            "  %2dKB icache: conv +%.3f (misses %6d), block +%.3f (misses %6d)\n" kb
            (rel mc.cycles (fst perfect))
            mc.icache_misses
            (rel mb.cycles (snd perfect))
            mb.icache_misses)
        sizes_kb;
      print_newline ())
    [ "gcc"; "go"; "compress" ]
