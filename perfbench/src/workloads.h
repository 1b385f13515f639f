// The benchmark's workloads. Each one generates its inputs from the run's
// seed, sets up the program in a private directory, drives a closed loop
// through the public serving, index, sampling and net APIs for the run's
// length, checks every answer, and returns the end-to-end metrics (or,
// in a traced run, the per-layer ones).
#ifndef KBTIM_PERFBENCH_WORKLOADS_H_
#define KBTIM_PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "checks.h"
#include "common.h"
#include "index/keyword_cache.h"

namespace perfbench {

/// Runs `options.workload`. Throws CheckFailure when an answer is wrong
/// and SetupFailure when the program fails outside the timed phase.
Result RunWorkload(const Options& options);

/// The RR blocks a query's budget needs, read through `cache`.
BlockMap LoadBlocks(kbtim::KeywordCache& cache,
                    const kbtim::QueryBudget& budget);

}  // namespace perfbench

#endif  // KBTIM_PERFBENCH_WORKLOADS_H_
