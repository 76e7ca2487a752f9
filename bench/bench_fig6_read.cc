// Figure 6 (paper §5.1): read performance. 100% gets with locality: 90% of
// keys picked from popular blocks comprising 10% of the database; the rest
// uniform. The paper sweeps 1..128 threads (beyond hardware parallelism,
// since some threads block on disk reads).
//
// Expected shape (paper): LevelDB and HyperLevelDB stop scaling at ~8
// threads (reads block on the global mutex); cLSM and RocksDB scale all the
// way to 128 threads; cLSM peaks ~2.3x the best competitor, and RocksDB
// pays an order of magnitude more latency for its throughput.
#include "bench/bench_common.h"

using namespace clsm;

int main() {
  BenchConfig config = LoadBenchConfig();
  // Reads scale past hardware threads; extend the sweep like the paper.
  if (getenv("CLSM_BENCH_THREADS") == nullptr) {
    config.thread_counts = {1, 2, 4, 8, 16, 32, 64, 128};
  }
  PrintFigureHeader("Figure 6", "read throughput and latency, 90%/10% hot-block gets", config);

  WorkloadSpec spec;
  spec.write_fraction = 0.0;
  spec.distribution = KeyDist::kHotBlock;
  spec.hot_key_fraction = 0.10;
  spec.hot_op_fraction = 0.90;
  spec.num_keys = config.preload_keys;  // read existing keys only

  std::vector<DbVariant> systems = {DbVariant::kRocksDb, DbVariant::kLevelDb,
                                    DbVariant::kHyperLevelDb, DbVariant::kClsm};

  ResultTable table("reads/sec", config.thread_counts);
  Options options = FigureOptions(config);
  for (DbVariant v : systems) {
    for (int threads : config.thread_counts) {
      DriverResult r = RunCell(v, spec, threads, config, options);
      table.AddResult(v, threads, r);
    }
  }

  printf("\n--- Fig 6a: read throughput (ops/sec) ---\n");
  table.Print();
  printf("\n--- Fig 6b: throughput vs 90th-percentile latency ---\n");
  table.PrintLatencyView();
  table.WriteJson("fig6_read", config);
  return 0;
}
