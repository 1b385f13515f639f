// End-to-end benchmark of the KB-TIM query engine.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> [--trace-out <file>]
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. A failed check
// prints "CHECK FAILED: <check>: <reason>" instead and exits 1; any other
// error exits 2. The work directory is created if missing and removed on
// exit. perfbench/run.py builds this binary and is the usual way in.
//
// Internal mode, used by the routed workload to start its shards:
//   perfbench --shard --dir <index_dir> --cache-bytes <n>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"
#include "process.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir> "
               "[--trace-out <file>]\n",
               why);
  return 2;
}

// Removes the run's private directory on every exit path.
class WorkdirGuard {
 public:
  explicit WorkdirGuard(std::string dir) : dir_(std::move(dir)) {}
  ~WorkdirGuard() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  WorkdirGuard(const WorkdirGuard&) = delete;
  WorkdirGuard& operator=(const WorkdirGuard&) = delete;

 private:
  std::string dir_;
};

}  // namespace

int main(int argc, char** argv) {
  perfbench::StartSetupClock();
  perfbench::Options options;
  bool shard = false;
  std::string shard_dir;
  uint64_t shard_cache_bytes = 0;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--shard") {
      shard = true;
    } else if (!has_value) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      options.workload = argv[++i];
    } else if (arg == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--workdir") {
      options.workdir = argv[++i];
    } else if (arg == "--trace-out") {
      options.trace_out = argv[++i];
    } else if (arg == "--dir") {
      shard_dir = argv[++i];
    } else if (arg == "--cache-bytes") {
      shard_cache_bytes = std::strtoull(argv[++i], nullptr, 10);
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (shard) return perfbench::ShardMain(shard_dir, shard_cache_bytes);
  if (options.workload.empty() || !have_seed || options.workdir.empty() ||
      !(options.seconds > 0.0)) {
    return Usage("--workload, --seed, --seconds and --workdir are required");
  }

  std::error_code ec;
  std::filesystem::create_directories(options.workdir, ec);
  if (ec) return Usage(("cannot create " + options.workdir).c_str());
  const WorkdirGuard guard(options.workdir);
  try {
    const perfbench::Result result = perfbench::RunWorkload(options);
    std::printf("%s\n", result.ToJson().c_str());
    std::fflush(stdout);
    return 0;
  } catch (const perfbench::CheckFailure& e) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.what());
    std::printf("CHECK FAILED: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ERROR: %s\n", e.what());
    return 2;
  }
}
