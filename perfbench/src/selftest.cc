// Self-tests of the benchmark's checks, on a tiny dataset, in seconds.
//
//   perfbench_selftest <workdir>      (python3 perfbench/run.py --selftest)
//
// Every check must accept the program's real answers and reject a
// perturbed one: a swapped seed, a recount that misses one RR set, a
// routed answer taken from another query, a WRIS estimate scaled by 2, and
// a run with one failed (degraded) routed request. The shard fleet must
// leave no process behind when a check fails.
// Exits 0 when every case passes.
#include <signal.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "checks.h"
#include "common.h"
#include "expr/datasets.h"
#include "expr/workload.h"
#include "index/index_builder.h"
#include "index/irr_index.h"
#include "index/rr_index.h"
#include "net/router.h"
#include "process.h"
#include "propagation/forward_simulator.h"
#include "sampling/wris_solver.h"
#include "workloads.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what, const std::string& detail) {
  std::printf("%s  %s%s%s\n", ok ? "PASS" : "FAIL", what.c_str(),
              detail.empty() ? "" : "  -- ", detail.c_str());
  if (!ok) ++g_failures;
}

void ExpectAccepts(const std::string& what, const std::string& verdict) {
  Expect(verdict.empty(), "accepts " + what, verdict);
}

void ExpectRejects(const std::string& what, const std::string& verdict) {
  Expect(!verdict.empty(), "rejects " + what, verdict);
}

std::unique_ptr<kbtim::Environment> TinyEnvironment(kbtim::DatasetSpec spec,
                                                    uint32_t vertices) {
  spec.graph.num_vertices = vertices;
  return Must(kbtim::Environment::Create(spec), "Environment::Create");
}

// A vertex that is not among `seeds`.
kbtim::VertexId NonSeed(const std::vector<kbtim::VertexId>& seeds) {
  for (kbtim::VertexId v = 0;; ++v) {
    if (std::find(seeds.begin(), seeds.end(), v) == seeds.end()) return v;
  }
}

void TestIndexChecks(const std::string& workdir) {
  constexpr uint32_t kK = 10;
  const auto env = TinyEnvironment(kbtim::NewsLikeSeries(8).front(), 3000);
  const uint32_t n = env->graph().num_vertices();
  const std::string dir = workdir + "/index";
  kbtim::IndexBuildOptions build;
  build.max_k = 20;
  build.num_threads = 2;
  build.opt_estimate.pilot_initial = 1024;
  kbtim::IndexBuilder builder(env->graph(), env->tfidf(), env->ic_probs(),
                              build);
  Must(builder.Build(dir), "IndexBuilder::Build");
  kbtim::QueryGeneratorOptions qopts;
  qopts.queries_per_length = 2;
  qopts.min_keywords = 1;
  qopts.max_keywords = 3;
  qopts.k = kK;
  const std::vector<kbtim::Query> queries = Must(env->Queries(qopts), "Queries");
  const auto cache = Must(kbtim::KeywordCache::Create(dir), "KeywordCache");
  const auto rr = Must(kbtim::RrIndex::Open(cache), "RrIndex");
  const auto irr = Must(kbtim::IrrIndex::Open(cache), "IrrIndex");

  std::vector<kbtim::SeedSetResult> rr_answers;
  std::string seed_set, same_seeds, recount;
  for (const kbtim::Query& q : queries) {
    rr_answers.push_back(Must(rr.Query(q), "RrIndex::Query"));
    const kbtim::SeedSetResult irr_answer = Must(irr.Query(q), "IrrIndex");
    const auto budget =
        Must(kbtim::ComputeQueryBudget(cache->meta(), q), "budget");
    seed_set += CheckSeedSet(rr_answers.back(), kK, n) +
                CheckSeedSet(irr_answer, kK, n);
    same_seeds += CheckSameSeeds(rr_answers.back(), irr_answer);
    recount += CheckRrRecount(rr_answers.back(), budget,
                              LoadBlocks(*cache, budget), n);
  }
  ExpectAccepts("real RR and IRR seed sets", seed_set);
  ExpectAccepts("real RR and IRR answers as the same seeds", same_seeds);
  ExpectAccepts("real RR influence against the recount", recount);

  // A swapped seed: the first seed replaced by a vertex outside the set.
  const kbtim::Query& q = queries.back();
  const kbtim::SeedSetResult& good = rr_answers.back();
  const auto budget = Must(kbtim::ComputeQueryBudget(cache->meta(), q), "b");
  const BlockMap blocks = LoadBlocks(*cache, budget);
  kbtim::SeedSetResult swapped = good;
  swapped.seeds[0] = NonSeed(good.seeds);
  ExpectRejects("a swapped seed (recount)",
                CheckRrRecount(swapped, budget, blocks, n));
  ExpectRejects("a swapped seed (RR vs IRR)", CheckSameSeeds(swapped, good));
  ExpectRejects("a swapped seed (byte equality)",
                CheckSameAnswer(swapped, good));
  kbtim::SeedSetResult duplicated = good;
  duplicated.seeds[1] = duplicated.seeds[0];
  ExpectRejects("a duplicated seed", CheckSeedSet(duplicated, kK, n));
  kbtim::SeedSetResult rising = good;
  rising.marginal_gains.back() = rising.marginal_gains.front() + 1.0;
  ExpectRejects("increasing marginal gains", CheckSeedSet(rising, kK, n));

  // A recount over one missing RR set: one covered set of the first
  // keyword loses its seed members, so the recount finds one set fewer.
  BlockMap missing = blocks;
  const auto [topic, sets] = budget.per_keyword.front();
  auto block = std::make_shared<kbtim::RrKeywordBlock>(*blocks.at(topic));
  const kbtim::VertexId filler = NonSeed(good.seeds);
  bool dropped = false;
  for (kbtim::RrId r = 0; r < sets && !dropped; ++r) {
    for (uint64_t i = block->set_offsets[r]; i < block->set_offsets[r + 1];
         ++i) {
      if (std::find(good.seeds.begin(), good.seeds.end(),
                    block->set_items[i]) != good.seeds.end()) {
        for (uint64_t j = block->set_offsets[r];
             j < block->set_offsets[r + 1]; ++j) {
          block->set_items[j] = filler;
        }
        dropped = true;
        break;
      }
    }
  }
  missing[topic] = block;
  Expect(dropped, "found a covered RR set to drop", "");
  Expect(RecountCoveredSets(budget, missing, good.seeds, n) + 1 ==
             RecountCoveredSets(budget, blocks, good.seeds, n),
         "the perturbed recount misses exactly one set", "");
  ExpectRejects("a recount over one missing RR set",
                CheckRrRecount(good, budget, missing, n));

  // Routed answers through two shard processes, then a failed check
  // while the fleet is up: the fleet must reap every shard.
  const kbtim::Query wide{{0, 1, 2, 3, 4, 5, 6, 7}, kK};
  std::vector<pid_t> pids;
  try {
    ShardFleet fleet(dir, 2, uint64_t{64} << 20);
    pids = fleet.pids();
    auto router = Must(kbtim::net::Router::Create(fleet.addresses()),
                       "Router::Create");
    const kbtim::SeedSetResult routed0 =
        Must(router->Query(queries[0]), "Router::Query");
    const kbtim::SeedSetResult routed1 =
        Must(router->Query(queries.back()), "Router::Query");
    ExpectAccepts("a routed answer against in-process RrIndex::Query",
                  CheckSameAnswer(routed0, rr_answers[0]));
    ExpectRejects("a routed answer taken from another query",
                  CheckSameAnswer(routed1, rr_answers[0]));
    ExpectAccepts("a full routed answer as answered",
                  FailureOf(kbtim::StatusOr<kbtim::SeedSetResult>(routed0)));
    // With one of two shards gone, a query over every keyword loses the
    // dead shard's keywords: a degraded answer or an error, either way a
    // failed request, and a run with one failed request fails its check.
    kill(pids[1], SIGKILL);
    const std::string lost = FailureOf(router->Query(wide));
    ExpectRejects("a routed answer with a dead shard as answered", lost);
    ExpectAccepts("a run with no failed request", CheckNoFailures(10, 0, ""));
    ExpectRejects("a run with one failed request",
                  CheckNoFailures(10, 1, lost));
    Require("deliberate failure", "fleet teardown on a failed check");
  } catch (const CheckFailure&) {
  }
  bool reaped = !pids.empty();
  for (pid_t pid : pids) {
    reaped = reaped && kill(pid, 0) != 0 && errno == ESRCH;
  }
  Expect(reaped, "a failed check leaves no shard process behind", "");
}

void TestWrisCheck() {
  constexpr double kEpsilon = 0.5;
  const auto env = TinyEnvironment(kbtim::TwitterLikeSeries(8).front(), 2000);
  kbtim::OnlineSolverOptions options;
  options.epsilon = kEpsilon;
  const kbtim::WrisSolver solver(env->graph(), env->tfidf(),
                                 kbtim::PropagationModel::kIndependentCascade,
                                 env->ic_probs(), options);
  const kbtim::Query q{{0, 1}, 10};
  const kbtim::SeedSetResult answer = Must(solver.Solve(q), "WRIS");
  std::vector<double> weight(env->graph().num_vertices(), 0.0);
  for (const auto& [v, phi] : env->tfidf().SparsePhi(q)) weight[v] = phi;
  const kbtim::ForwardSimulator simulator(
      env->graph(), kbtim::PropagationModel::kIndependentCascade,
      env->ic_probs());
  std::vector<double> means;
  for (uint64_t b = 0; b < 8; ++b) {
    kbtim::SpreadEstimateOptions mc;
    mc.num_simulations = 250;
    mc.seed = 1000 + b;
    means.push_back(simulator.EstimateWeightedSpread(answer.seeds, weight, mc));
  }
  double mean = 0.0, var = 0.0;
  for (double m : means) mean += m / means.size();
  for (double m : means) var += (m - mean) * (m - mean);
  const double se = std::sqrt(var / (means.size() - 1) / means.size());
  ExpectAccepts("a real WRIS estimate against Monte Carlo",
                CheckWrisEstimate(answer.estimated_influence, mean, se,
                                  kEpsilon));
  ExpectRejects("a WRIS estimate scaled by 2",
                CheckWrisEstimate(2.0 * answer.estimated_influence, mean, se,
                                  kEpsilon));
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc > 1 && std::string(argv[1]) == "--shard" && argc == 6) {
    return ShardMain(argv[3], std::strtoull(argv[5], nullptr, 10));
  }
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest <workdir>\n");
    return 2;
  }
  const std::string workdir = argv[1];
  std::filesystem::create_directories(workdir);
  try {
    TestIndexChecks(workdir);
    TestWrisCheck();
  } catch (const std::exception& e) {
    std::printf("FAIL  unexpected error: %s\n", e.what());
    ++g_failures;
  }
  std::error_code ec;
  std::filesystem::remove_all(workdir, ec);
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "OK" : "FAILED",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
