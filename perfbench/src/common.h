// Shared plumbing of the end-to-end benchmark: run options, the result
// object printed as the last line of stdout, the error types that end a
// run, and small measurement helpers (clocks, CPU time, percentiles).
#ifndef KBTIM_PERFBENCH_COMMON_H_
#define KBTIM_PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/statusor.h"

namespace perfbench {

/// Command-line options of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Private scratch directory for this run's index; removed at exit.
  std::string workdir;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints: the last line of stdout. A run whose checks fail
/// prints no result, so a printed result is always "correct": true.
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  std::string ToJson() const;
};

/// A correctness check failed: the run prints which one and exits 1.
class CheckFailure : public std::runtime_error {
 public:
  CheckFailure(const std::string& check, const std::string& detail)
      : std::runtime_error(check + ": " + detail) {}
};

/// The program under test returned an error outside the timed phase
/// (set-up, warm-up or a reference computation).
class SetupFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Throws CheckFailure when `detail` is non-empty (the check functions
/// return an empty string on success).
inline void Require(const std::string& check, const std::string& detail) {
  if (!detail.empty()) throw CheckFailure(check, detail);
}

inline void Must(const kbtim::Status& status, const char* what) {
  if (!status.ok()) {
    throw SetupFailure(std::string(what) + ": " + status.ToString());
  }
}

template <typename T>
T Must(kbtim::StatusOr<T> value, const char* what) {
  Must(value.status(), what);
  return std::move(*value);
}

/// Monotonic seconds since an arbitrary origin.
double NowSeconds();

/// Starts the set-up clock; call first thing in main().
void StartSetupClock();

/// Seconds since this process started: the kernel's start time up to
/// StartSetupClock() (10 ms ticks, covering exec and loading), plus the
/// steady clock since.
double SecondsSinceProcessStart();

/// User + system CPU seconds of this process (all threads).
double SelfCpuSeconds();

/// User + system CPU seconds of another live process, from /proc.
double ProcessCpuSeconds(pid_t pid);

/// Peak resident set of this process so far, in MB.
double SelfPeakRssMb();

/// Percentile `p` in [0, 1] by nearest rank over a copy of `values`.
double Percentile(std::vector<double> values, double p);

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

}  // namespace perfbench

#endif  // KBTIM_PERFBENCH_COMMON_H_
