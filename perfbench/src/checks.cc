#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

namespace perfbench {
namespace {

std::string SeedList(const std::vector<kbtim::VertexId>& seeds) {
  std::string out;
  for (size_t i = 0; i < seeds.size() && i < 8; ++i) {
    out += (i == 0 ? "" : ",") + std::to_string(seeds[i]);
  }
  return out + (seeds.size() > 8 ? ",..." : "");
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

std::string CheckSeedSet(const kbtim::SeedSetResult& answer, uint32_t k,
                         uint32_t num_vertices) {
  if (answer.seeds.size() != k) {
    return "expected " + std::to_string(k) + " seeds, got " +
           std::to_string(answer.seeds.size());
  }
  if (answer.marginal_gains.size() != answer.seeds.size()) {
    return "marginal gains do not align with seeds";
  }
  std::vector<kbtim::VertexId> sorted = answer.seeds;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return "duplicate seed in " + SeedList(answer.seeds);
  }
  if (!sorted.empty() && sorted.back() >= num_vertices) {
    return "seed " + std::to_string(sorted.back()) + " out of range";
  }
  for (size_t i = 0; i < answer.marginal_gains.size(); ++i) {
    const double gain = answer.marginal_gains[i];
    if (!(gain >= 0.0) ||
        (i > 0 && gain > answer.marginal_gains[i - 1])) {
      return "marginal gains not non-increasing at position " +
             std::to_string(i);
    }
  }
  return "";
}

std::string CheckSameAnswer(const kbtim::SeedSetResult& got,
                            const kbtim::SeedSetResult& want) {
  if (got.degraded || want.degraded) return "answer is degraded";
  if (got.seeds != want.seeds) {
    return "seeds differ: " + SeedList(got.seeds) + " vs " +
           SeedList(want.seeds);
  }
  if (got.marginal_gains.size() != want.marginal_gains.size()) {
    return "marginal gain counts differ";
  }
  for (size_t i = 0; i < got.marginal_gains.size(); ++i) {
    if (!SameBits(got.marginal_gains[i], want.marginal_gains[i])) {
      return "marginal gain " + std::to_string(i) + " differs";
    }
  }
  if (!SameBits(got.estimated_influence, want.estimated_influence)) {
    return "influence differs: " + std::to_string(got.estimated_influence) +
           " vs " + std::to_string(want.estimated_influence);
  }
  return "";
}

std::string CheckSameSeeds(const kbtim::SeedSetResult& rr,
                           const kbtim::SeedSetResult& irr) {
  if (rr.seeds == irr.seeds) return "";
  return "RR seeds " + SeedList(rr.seeds) + " vs IRR seeds " +
         SeedList(irr.seeds);
}

uint64_t RecountCoveredSets(const kbtim::QueryBudget& budget,
                            const BlockMap& blocks,
                            const std::vector<kbtim::VertexId>& seeds,
                            uint32_t num_vertices) {
  std::vector<char> is_seed(num_vertices, 0);
  for (kbtim::VertexId v : seeds) {
    if (v < num_vertices) is_seed[v] = 1;
  }
  uint64_t covered = 0;
  for (const auto& [topic, sets] : budget.per_keyword) {
    if (sets == 0) continue;
    const auto it = blocks.find(topic);
    if (it == blocks.end() || it->second->loaded_budget < sets) continue;
    for (kbtim::RrId rr = 0; rr < sets; ++rr) {
      for (kbtim::VertexId u : it->second->SetMembers(rr)) {
        if (u < num_vertices && is_seed[u]) {
          ++covered;
          break;
        }
      }
    }
  }
  return covered;
}

std::string CheckRrRecount(const kbtim::SeedSetResult& answer,
                           const kbtim::QueryBudget& budget,
                           const BlockMap& blocks, uint32_t num_vertices) {
  uint64_t total_sets = 0;
  for (const auto& [topic, sets] : budget.per_keyword) {
    if (sets == 0) continue;
    const auto it = blocks.find(topic);
    if (it == blocks.end() || it->second->loaded_budget < sets) {
      return "no block covering topic " + std::to_string(topic) +
             " at budget " + std::to_string(sets);
    }
    total_sets += sets;
  }
  const uint64_t covered =
      RecountCoveredSets(budget, blocks, answer.seeds, num_vertices);
  const double scale =
      budget.phi_q / static_cast<double>(std::max<uint64_t>(1, total_sets));
  const double expected = static_cast<double>(covered) * scale;
  if (SameBits(expected, answer.estimated_influence)) return "";
  return "estimate " + std::to_string(answer.estimated_influence) +
         " != recount " + std::to_string(covered) + " of " +
         std::to_string(total_sets) + " sets = " + std::to_string(expected);
}

std::string CheckWrisEstimate(double estimate, double mc_mean,
                              double mc_stderr, double epsilon) {
  const double tolerance = epsilon * mc_mean + 4.0 * mc_stderr;
  if (std::isfinite(estimate) && std::fabs(estimate - mc_mean) <= tolerance) {
    return "";
  }
  return "WRIS estimate " + std::to_string(estimate) +
         " vs Monte-Carlo " + std::to_string(mc_mean) + " (stderr " +
         std::to_string(mc_stderr) + "), tolerance " +
         std::to_string(tolerance);
}

std::string FailureOf(const kbtim::StatusOr<kbtim::SeedSetResult>& result) {
  if (!result.ok()) return result.status().ToString();
  if (result->degraded) return "degraded answer";
  return "";
}

std::string CheckNoFailures(uint64_t attempted, uint64_t failed,
                            const std::string& first_failure) {
  if (failed == 0) return "";
  return std::to_string(failed) + " of " + std::to_string(attempted) +
         " timed requests failed; first: " + first_failure;
}

}  // namespace perfbench
