// Scalability summary (paper §1/§5 headline claims): for each system and
// each canonical workload, report the peak throughput, the thread count at
// which it peaks, and the speedup over its own single-thread throughput.
// The paper's claims: cLSM improves throughput 1.5x-2.5x over the best
// competitor and exploits at least twice as many threads.
#include "bench/bench_common.h"

using namespace clsm;

namespace {

struct Summary {
  double best_ops = 0;
  int best_threads = 1;
  double one_thread_ops = 0;
};

}  // namespace

int main() {
  BenchConfig config = LoadBenchConfig();
  PrintFigureHeader("Scalability summary", "peak thread count and self-speedup per system",
                    config);

  struct Mix {
    const char* name;
    WorkloadSpec spec;
  };
  WorkloadSpec writes;
  writes.write_fraction = 1.0;
  writes.distribution = KeyDist::kUniform;
  WorkloadSpec reads;
  reads.distribution = KeyDist::kHotBlock;
  WorkloadSpec mixed;
  mixed.write_fraction = 0.5;
  mixed.distribution = KeyDist::kHotBlock;

  std::vector<Mix> mixes = {{"100% write", writes}, {"100% read", reads}, {"50/50 mix", mixed}};
  std::vector<DbVariant> systems = {DbVariant::kRocksDb, DbVariant::kLevelDb,
                                    DbVariant::kHyperLevelDb, DbVariant::kClsm};

  Options options = FigureOptions(config);
  for (const Mix& mix : mixes) {
    WorkloadSpec spec = mix.spec;
    spec.num_keys = config.preload_keys;
    printf("\n--- workload: %s ---\n", mix.name);
    printf("%-16s %14s %14s %14s\n", "system", "peak ops/sec", "peak threads", "self-speedup");
    for (DbVariant v : systems) {
      Summary summary;
      for (int threads : config.thread_counts) {
        DriverResult r = RunCell(v, spec, threads, config, options);
        if (threads == config.thread_counts.front()) {
          summary.one_thread_ops = r.ops_per_sec;
        }
        if (r.ops_per_sec > summary.best_ops) {
          summary.best_ops = r.ops_per_sec;
          summary.best_threads = threads;
        }
      }
      printf("%-16s %14.0f %14d %14.2fx\n", VariantName(v), summary.best_ops,
             summary.best_threads,
             summary.one_thread_ops > 0 ? summary.best_ops / summary.one_thread_ops : 0.0);
      fflush(stdout);
    }
  }
  return 0;
}
