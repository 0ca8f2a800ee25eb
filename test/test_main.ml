(* The toolchain's test entry point: one suite per library layer. *)

let () =
  Alcotest.run "bisa"
    [
      ("base", Test_base.suite);
      ("pool", Test_pool.suite);
      ("memo", Test_memo.suite);
      ("isa", Test_isa.suite);
      ("encode", Test_encode.suite);
      ("frontend", Test_frontend.suite);
      ("ir", Test_ir.suite);
      ("opt", Test_opt.suite);
      ("backend", Test_backend.suite);
      ("verify", Test_verify.suite);
      ("sim", Test_sim.suite);
      ("compile", Test_compile.suite);
      ("uarch", Test_uarch.suite);
      ("timing", Test_timing.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("obs", Test_obs.suite);
      ("golden", Test_golden.suite);
      ("workloads", Test_workloads.suite);
      ("experiments", Test_experiments.suite);
      ("extensions", Test_extensions.suite);
      ("integration", Test_integration.suite);
      ("properties", Test_props.suite);
      ("check", Test_check.suite);
      ("serve", Test_serve.suite);
    ]
