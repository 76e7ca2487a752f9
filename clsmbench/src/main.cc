// clsmbench: runs one named workload against cLSM, checks every result and
// prints its metrics. Usage:
//
//   clsmbench --workload <ingest|read|mixed|serve> --seed <n> --seconds <n>
//             --trace <0|1> [--spans <file>]
//
// Before the result it prints a host record and the store configuration;
// the last line of standard output is the result object. The exit code is
// 0 only when every operation succeeded and every check passed.
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "clsmbench/src/memfd_env.h"
#include "clsmbench/src/value_codec.h"
#include "clsmbench/src/workloads.h"
#include "src/util/options.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "clsmbench: %s\nusage: clsmbench --workload <ingest|read|mixed|serve> --seed <n> "
               "--seconds <n> --trace <0|1> [--spans <file>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  clsmbench::RunConfig cfg;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    if (arg == "--workload") {
      cfg.workload = val;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::atoi(val.c_str());
    } else if (arg == "--trace") {
      cfg.trace = val == "1";
    } else if (arg == "--spans") {
      cfg.spans_path = val;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!clsmbench::IsWorkload(cfg.workload)) Usage("unknown workload");
  if (cfg.seconds < 1 || cfg.seconds > 60) Usage("--seconds must be in [1, 60]");

  // The host record goes with every result, so figures from different
  // setups are never compared silently. The store is always in memfd
  // files (see memfd_env.h); data_fs is what the kernel reports for them.
  const std::string data_fs = clsmbench::MemFdEnv::FilesystemType();
  std::printf("host: {\"nproc\": %ld, \"data_fs\": %s, \"data_fs_is_tmpfs\": %s, "
              "\"build_type\": %s}\n",
              sysconf(_SC_NPROCESSORS_ONLN), JsonString("memfd on " + data_fs).c_str(),
              data_fs == "tmpfs" ? "true" : "false", JsonString(CLSMBENCH_BUILD_TYPE).c_str());
  if (data_fs != "tmpfs") {
    std::fprintf(stderr, "clsmbench: warning: the store's memfd files are not on tmpfs (%s)\n",
                 data_fs.c_str());
  }
  const clsm::Options defaults;
  std::printf("config: {\"workload\": %s, \"seed\": %" PRIu64 ", \"trace\": %d, \"clients\": %d, "
              "\"loop\": \"closed\", \"write_buffer_size\": %zu, \"block_cache_size\": %zu, "
              "\"wal\": \"on, asynchronous logger, no per-write sync\", \"key_bytes\": %zu, "
              "\"value_bytes\": %zu}\n",
              JsonString(cfg.workload).c_str(), cfg.seed, cfg.trace ? 1 : 0, clsmbench::kClients,
              defaults.write_buffer_size, defaults.block_cache_size, clsmbench::kKeySize,
              clsmbench::kValueSize);

  const clsmbench::RunReport r = clsmbench::RunWorkload(cfg);
  for (const std::string& note : r.notes) std::fprintf(stderr, "clsmbench: %s\n", note.c_str());

  std::string metrics;
  for (const clsmbench::Metric& m : r.metrics) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "{\"value\": %.17g, \"unit\": ", m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(m.name) + ": " + buf + JsonString(m.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {%s}}\n",
              r.correct ? "true" : "false", r.attempted, r.failed, metrics.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
