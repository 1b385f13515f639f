// Correctness checks the benchmark runs on the program's answers, outside
// the timed phase. Each returns an empty string when the answer passes and
// a one-line reason when it does not; the self-tests feed them perturbed
// answers to show that each one rejects what it should.
#ifndef KBTIM_PERFBENCH_CHECKS_H_
#define KBTIM_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "index/index_format.h"
#include "common/statusor.h"
#include "index/keyword_cache.h"
#include "sampling/solver_result.h"
#include "topics/query.h"

namespace perfbench {

using BlockMap =
    std::unordered_map<kbtim::TopicId,
                       std::shared_ptr<const kbtim::RrKeywordBlock>>;

/// k distinct seeds, each below `num_vertices`, with one marginal gain
/// each and the gains non-increasing (greedy on a submodular cover).
std::string CheckSeedSet(const kbtim::SeedSetResult& answer, uint32_t k,
                         uint32_t num_vertices);

/// Byte equality of two answers: seeds, marginal gains and the influence
/// estimate bit for bit, and neither degraded.
std::string CheckSameAnswer(const kbtim::SeedSetResult& got,
                            const kbtim::SeedSetResult& want);

/// The same seeds in the same order (paper Theorem 3: the RR and IRR
/// indexes select identical seed sets).
std::string CheckSameSeeds(const kbtim::SeedSetResult& rr,
                           const kbtim::SeedSetResult& irr);

/// Number of budgeted RR sets, over every keyword of `budget`, that
/// contain at least one seed, counted from RrKeywordBlock::SetMembers.
uint64_t RecountCoveredSets(const kbtim::QueryBudget& budget,
                            const BlockMap& blocks,
                            const std::vector<kbtim::VertexId>& seeds,
                            uint32_t num_vertices);

/// The RR answer's influence estimate equals the recount of covered
/// budgeted RR sets, scaled by φ_Q over the number of budgeted sets.
std::string CheckRrRecount(const kbtim::SeedSetResult& answer,
                           const kbtim::QueryBudget& budget,
                           const BlockMap& blocks, uint32_t num_vertices);

/// The WRIS influence estimate agrees with a Monte-Carlo estimate of the
/// same seed set's weighted spread: |estimate − mc_mean| must not exceed
/// epsilon · mc_mean + 4 · mc_stderr (see README, "WRIS tolerance").
std::string CheckWrisEstimate(double estimate, double mc_mean,
                              double mc_stderr, double epsilon);

/// Why a request counts as failed: its error, or "degraded answer" when a
/// routed answer dropped keywords. Empty when it was answered in full.
std::string FailureOf(const kbtim::StatusOr<kbtim::SeedSetResult>& result);

/// Every timed request was answered: none returned an error or a
/// degraded answer. `first_failure` says why the first failed one did.
std::string CheckNoFailures(uint64_t attempted, uint64_t failed,
                            const std::string& first_failure);

}  // namespace perfbench

#endif  // KBTIM_PERFBENCH_CHECKS_H_
