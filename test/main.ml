let () =
  Alcotest.run "sdfg"
    [ ("symbolic", Test_symbolic.suite);
      ("tasklang", Test_tasklang.suite);
      ("ir", Test_ir.suite);
      ("serialize", Test_serialize.suite);
      ("ndlang", Test_ndlang.suite);
      ("interp", Test_interp.suite);
      ("transform", Test_xform.suite);
      ("codegen", Test_codegen.suite);
      ("machine", Test_machine.suite);
      ("workloads", Test_workloads.suite);
      ("polybench", Test_polybench.suite);
      ("properties", Test_properties.suite);
      ("crossval", Test_crossval.suite);
      ("parallel", Test_parallel.suite);
      ("scaling", Test_scaling.suite);
      ("workload_gauntlet", Test_workload_gauntlet.suite);
      ("kernels", Test_kernels.suite);
      ("session", Test_session.suite);
      ("report", Test_report.suite);
      ("profile", Test_profile.suite);
      ("opt", Test_opt.suite);
      ("fuzz", Test_fuzz.suite);
      ("serve", Test_serve.suite);
      ("streaming", Test_streaming.suite) ]
