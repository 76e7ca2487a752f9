// Figure 5 (paper §5.1): write performance. 100% put workload, keys drawn
// uniformly at random, value size 256B, key size 8B. Fig 5a plots
// throughput vs worker threads; Fig 5b plots throughput vs 90th-percentile
// latency. bLSM has no column: its in-memory concurrency control is
// LevelDB's, and its merge scheduling is the write controller every
// variant shares.
//
// Expected shape (paper): LevelDB, bLSM and RocksDB are bounded by their
// single-writer architectures and do not scale (throughput can even drop
// as threads contend on the writer queue). HyperLevelDB gains ~33% up to 4
// threads. cLSM scales ~2.5x, saturating around 8 threads, peak ~1.8x the
// best competitor.
#include "bench/bench_common.h"

using namespace clsm;

int main() {
  BenchConfig config = LoadBenchConfig();
  PrintFigureHeader("Figure 5", "write throughput and latency, 100% uniform puts", config);

  WorkloadSpec spec;
  spec.write_fraction = 1.0;
  spec.distribution = KeyDist::kUniform;
  spec.num_keys = config.num_keys;

  std::vector<DbVariant> systems = {DbVariant::kRocksDb, DbVariant::kLevelDb,
                                    DbVariant::kHyperLevelDb, DbVariant::kClsm};

  ResultTable table("writes/sec", config.thread_counts);
  Options options = FigureOptions(config);
  for (DbVariant v : systems) {
    for (int threads : config.thread_counts) {
      DriverResult r = RunCell(v, spec, threads, config, options);
      table.AddResult(v, threads, r);
    }
  }

  printf("\n--- Fig 5a: write throughput (ops/sec) ---\n");
  table.Print();
  printf("\n--- Fig 5b: throughput vs 90th-percentile latency ---\n");
  table.PrintLatencyView();
  table.WriteJson("fig5_write", config);
  return 0;
}
