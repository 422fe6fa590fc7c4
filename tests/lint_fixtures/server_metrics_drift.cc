// Golden violation fixture for scripts/agora_lint.py (never compiled):
// a server_* series registered in src/server/ whose name is absent from
// docs/METRICS.md is documentation drift, gauges (no _total/_seconds
// suffix) included.
// lint-as: src/server/metrics_fixture.cc
// expect-violation: metrics-doc-drift

namespace agora {

void ObserveGhostSeries(void* registry) {
  (void)registry;
  const char* gauge = "server_lint_fixture_ghost_active";
  (void)gauge;
}

}  // namespace agora
