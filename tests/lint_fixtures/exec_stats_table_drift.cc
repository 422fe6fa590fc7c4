// Golden violation fixture for scripts/agora_lint.py (never compiled):
// a row of the ExecStats counter table whose registry name is absent
// from docs/METRICS.md is documentation drift, even though no Add() call
// in src/engine/database.cc names it.
// lint-as: src/exec/physical_op.h
// expect-violation: metrics-doc-drift

#define AGORA_EXEC_STATS_COUNTERS(X)                                    \
  X(rows_scanned, "rows_scanned_total", kSum, kCore, kExact)            \
  X(lint_fixture_ghost_rows, "lint_fixture_table_ghost_total", kSum,    \
    kCore, kExact)
