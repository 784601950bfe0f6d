let () =
  Alcotest.run "wipdb"
    [
      ("util", Test_util.suite);
      ("sync", Test_sync.suite);
      ("bloom", Test_bloom.suite);
      ("storage", Test_storage.suite);
      ("memtable", Test_memtable.suite);
      ("sstable", Test_sstable.suite);
      ("wal", Test_wal.suite);
      ("workload", Test_workload.suite);
      ("stats", Test_stats.suite);
      ("lsm", Test_lsm.suite);
      ("flsm", Test_flsm.suite);
      ("wipdb", Test_wipdb.suite);
      ("manifest", Test_manifest.suite);
      ("integration", Test_integration.suite);
      ("cache", Test_cache.suite);
      ("readpath", Test_readpath.suite);
      ("iterator", Test_iterator.suite);
      ("sorted-view", Test_sorted_view.suite);
      ("range-reader", Test_range_reader.suite);
      ("snapshot", Test_snapshot.suite);
      ("concurrent", Test_concurrent.suite);
      ("sharded", Test_sharded.suite);
      ("crash", Test_crash.suite);
      ("crash-matrix", Test_crash_matrix.suite);
      ("fault", Test_fault.suite);
      ("chaos", Test_chaos.suite);
      ("properties", Test_properties.suite);
      ("protocol", Test_protocol.suite);
      ("group-commit", Test_group_commit.suite);
      ("server", Test_server.suite);
      ("lock-discipline", Test_lock_discipline.suite);
    ]
