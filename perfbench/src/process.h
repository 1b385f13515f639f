// Shard processes for the routed workload. Each shard is this benchmark's
// own binary started in shard mode: it serves the run's index directory
// through kbtim::net::ShardServer until it is told to stop.
//
// Shards die with the benchmark: each asks the kernel for SIGKILL when
// its parent exits, and the fleet's destructor terminates and reaps every
// shard on every exit path, a failed check included.
#ifndef KBTIM_PERFBENCH_PROCESS_H_
#define KBTIM_PERFBENCH_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/router.h"

namespace perfbench {

class ShardFleet {
 public:
  /// Starts `count` shards over `index_dir`, each with one service worker
  /// and a block cache of `cache_bytes`; returns once all are listening.
  /// Throws SetupFailure if a shard does not come up.
  ShardFleet(const std::string& index_dir, uint32_t count,
             uint64_t cache_bytes);
  ~ShardFleet();
  ShardFleet(const ShardFleet&) = delete;
  ShardFleet& operator=(const ShardFleet&) = delete;

  const std::vector<kbtim::net::ShardAddress>& addresses() const {
    return addresses_;
  }

  /// Process ids of the live shards (empty after Stop()).
  const std::vector<pid_t>& pids() const { return pids_; }

  /// CPU seconds used so far by all live shards.
  double CpuSeconds() const;

  /// Terminates and reaps every shard. Returns the sum of their peak
  /// resident sets in MB. Idempotent; the destructor calls it.
  double Stop();

 private:
  std::vector<pid_t> pids_;
  std::vector<int> pipes_;  // read ends of the shards' stdout
  std::vector<kbtim::net::ShardAddress> addresses_;
  double peak_rss_mb_ = 0.0;
};

/// Entry point of shard mode: serves `index_dir` until SIGTERM or SIGINT.
/// Prints "LISTENING <port>" on stdout once ready.
int ShardMain(const std::string& index_dir, uint64_t cache_bytes);

}  // namespace perfbench

#endif  // KBTIM_PERFBENCH_PROCESS_H_
