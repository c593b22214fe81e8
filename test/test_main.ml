let () =
  Alcotest.run "tqec"
    (List.concat
       [ Test_util.suites; Test_circuit.suites; Test_icm.suites;
         Test_pdgraph.suites; Test_geom.suites; Test_place.suites;
         Test_route.suites; Test_compress.suites; Test_verify.suites; Test_extensions.suites; Test_edge_cases.suites;
         Test_fuzz.suites; Test_serve.suites; Test_lint.suites; Test_emission.suites ])
