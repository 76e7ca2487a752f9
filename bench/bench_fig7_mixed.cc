// Figure 7 (paper §5.1): mixed workloads.
//   Fig 7a: 50% reads / 50% writes (ops/sec).
//   Fig 7b: 50% scans / 50% writes where each scan covers 10-20 keys, so
//           scan *operations* are ~15x rarer than writes to balance the
//           number of keys written and scanned; throughput is keys/sec.
//
// Expected shape (paper): LevelDB fails to scale even at 50% writes;
// HyperLevelDB slightly better; cLSM exploits all threads (~730K ops/s at
// 16 in the paper). For scans, competitors trail cLSM by more than 60%.
#include "bench/bench_common.h"

using namespace clsm;

int main() {
  BenchConfig config = LoadBenchConfig();
  PrintFigureHeader("Figure 7", "mixed read/write and scan/write throughput", config);

  Options options = FigureOptions(config);
  const std::vector<DbVariant> systems = {DbVariant::kRocksDb, DbVariant::kLevelDb,
                                          DbVariant::kHyperLevelDb, DbVariant::kClsm};

  {
    WorkloadSpec spec;
    spec.write_fraction = 0.5;
    spec.distribution = KeyDist::kHotBlock;
    spec.num_keys = config.preload_keys;

    ResultTable table("ops/sec", config.thread_counts);
    for (DbVariant v : systems) {
      for (int threads : config.thread_counts) {
        DriverResult r = RunCell(v, spec, threads, config, options);
        table.AddResult(v, threads, r);
      }
    }
    printf("\n--- Fig 7a: 50%% read / 50%% write (ops/sec) ---\n");
    table.Print();
    table.WriteJson("fig7a_mixed_rw", config);
  }

  {
    // Keys scanned per op ~15, so scans are 1/16 of operations to keep keys
    // written ≈ keys scanned, as in the paper.
    WorkloadSpec spec;
    spec.write_fraction = 15.0 / 16.0;
    spec.scan_fraction = 1.0 / 16.0;
    spec.distribution = KeyDist::kHotBlock;
    spec.num_keys = config.preload_keys;

    ResultTable table("keys/sec", config.thread_counts);
    for (DbVariant v : systems) {
      for (int threads : config.thread_counts) {
        DriverResult r = RunCell(v, spec, threads, config, options);
        table.AddResult(v, threads, r);
        table.Add(v, threads, r.keys_per_sec);  // figure metric is keys/sec
      }
    }
    printf("\n--- Fig 7b: 50%% scan / 50%% write (keys/sec) ---\n");
    table.Print();
    table.WriteJson("fig7b_scan_write", config);
  }
  return 0;
}
