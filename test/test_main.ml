let () =
  Alcotest.run "qopt"
    [
      ("bitset", T_bitset.suite);
      ("util", T_util.suite);
      ("catalog", T_catalog.suite);
      ("sql", T_sql.suite);
      ("props", T_props.suite);
      ("block", T_block.suite);
      ("cardinality-cost", T_cardinality_cost.suite);
      ("selectivity", T_selectivity.suite);
      ("memo", T_memo.suite);
      ("enumerator", T_enumerator.suite);
      ("optimizer", T_optimizer.suite);
      ("cote", T_cote.suite);
      ("workloads", T_workloads.suite);
      ("mop", T_mop.suite);
      ("topn", T_topn.suite);
      ("extensions", T_extensions.suite);
      ("misc", T_misc.suite);
      ("properties", T_properties.suite);
      ("obs", T_obs.suite);
      ("hotpath", T_hotpath.suite);
      ("par", T_par.suite);
      ("parallel-gen", T_parallel_gen.suite);
      ("contention", T_contention.suite);
      ("stmt-cache", T_stmt_cache.suite);
      ("recalibrate", T_recalibrate.suite);
      ("plan-cache", T_plan_cache.suite);
      ("sql-roundtrip", T_roundtrip.suite);
      ("sql-errors", T_sqlfront_errors.suite);
      ("server", T_server.suite);
      ("fleet", T_fleet.suite);
      ("giant", T_giant.suite);
    ]
