#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <thread>

#include "expr/datasets.h"
#include "expr/workload.h"
#include "index/index_builder.h"
#include "index/irr_index.h"
#include "index/rr_greedy.h"
#include "index/rr_index.h"
#include "net/router.h"
#include "net/shard_client.h"
#include "net/wire_format.h"
#include "process.h"
#include "propagation/forward_simulator.h"
#include "sampling/wris_solver.h"
#include "serving/query_service.h"
#include "storage/io_counter.h"
#include "trace.h"

namespace perfbench {
namespace {

using kbtim::Query;
using kbtim::QueryEngine;
using kbtim::SeedSetResult;
using kbtim::ServiceRequest;

// ---- Fixed parameters (README, "Workloads") -------------------------------

constexpr uint32_t kTopics = 30;
constexpr uint32_t kK = 30;
constexpr double kEpsilon = 0.5;  // index build and WRIS alike
constexpr uint32_t kBuildThreads = 4;
constexpr double kMiB = 1024.0 * 1024.0;
// Above the decoded working set of the N140k mix (about 811 MiB).
constexpr uint64_t kLargeCacheBytes = uint64_t{4} << 30;
// The library default: under a third of that working set.
constexpr uint64_t kPressureCacheBytes = uint64_t{256} << 20;
// Per shard: each of two shards holds about half the working set.
constexpr uint64_t kShardCacheBytes = uint64_t{1} << 30;
constexpr uint32_t kShards = 2;
// Traced runs replay this many queries call by call through the layers.
constexpr size_t kReplayQueries = 24;
constexpr size_t kRoutedReplayQueries = 12;
// WRIS answers re-solved at 1 and 2 threads and checked by Monte Carlo.
constexpr size_t kWrisSampled = 2;
constexpr uint32_t kMcBatches = 8;
constexpr uint32_t kMcSimsPerBatch = 125;
// Span query ids: 0 is set-up, timed requests count from 1, replays
// from here.
constexpr uint64_t kReplayQueryBase = uint64_t{1} << 40;

struct WorkloadSpec {
  const char* name;
  double tail_percentile;  // the highest leaving >= 10 samples beyond it
};

const WorkloadSpec kWorkloads[] = {
    {"warm_mix", 0.99},
    {"cache_pressure", 0.95},
    {"online_wris", 0.70},
    {"routed_rr", 0.85},
};

// Every per-layer metric, in BENCHMARK.json order. Every workload reports
// all of them; a layer a workload does not use reports 0: it did no work
// there.
struct LayerMetric {
  const char* name;
  const char* unit;
};

const LayerMetric kLayerMetrics[] = {
    {"graph.generate_s", "s"},
    {"index.build_s", "s"},
    {"index.disk_mb", "MB"},
    {"index.irr_query_ms", "ms"},
    {"index.rr_greedy_ms", "ms"},
    {"index.rr_sets_per_query", "count"},
    {"index.block_load_ms", "ms"},
    {"index.cache_hit_rate", "ratio"},
    {"index.evictions_per_query", "count"},
    {"storage.read_ops_per_query", "count"},
    {"storage.read_mb_per_query", "MB"},
    {"serving.queue_ms", "ms"},
    {"serving.rr_batch_share", "ratio"},
    {"net.fetch_rpc_ms", "ms"},
    {"net.encode_ms", "ms"},
    {"net.decode_ms", "ms"},
    {"net.wire_mb_per_query", "MB"},
    {"net.rpcs_per_query", "count"},
    {"trace.overhead_ms", "ms"},
    {"sampling.wris_sampling_ms", "ms"},
    {"propagation.rr_sets_per_s", "1/s"},
    {"coverage.wris_greedy_ms", "ms"},
    {"sampling.wris_other_ms", "ms"},
    {"sampling.theta_per_solve", "count"},
};

using LayerValues = std::map<std::string, double>;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Ms(double seconds) { return seconds * 1e3; }

// Progress on stderr: where set-up time goes, per run.
void Note(const char* what) {
  std::fprintf(stderr, "perfbench: %s at %.3f s\n", what,
               SecondsSinceProcessStart());
}

// ---- Inputs ----------------------------------------------------------------

// The graphs and topic profiles are the library's fixed presets; the run's
// seed draws the query stream, the index's samples and the WRIS samples.
// Regenerating the graph per seed moved WRIS cost per query by a fifth
// between seeds, which no run length averages away.
std::unique_ptr<kbtim::Environment> MakeEnvironment(
    const kbtim::DatasetSpec& spec, Tracer* tracer) {
  Tracer::Span span(tracer, "graph.generate", 0);
  auto env = Must(kbtim::Environment::Create(spec), "Environment::Create");
  Note("graph generated");
  return env;
}

// The workload's query pool: `per_length` queries of each keyword count
// in [min_keywords, max_keywords], from the library generator's fixed
// seed, so every run replays the same query log. The run's seed orders
// the pool so that every run of (max - min + 1) consecutive queries holds
// one query of each length; a closed loop that stops mid-pass still sees
// the same length mix. Each workload's pool is small enough for a run to
// cover it at least once: with a pool drawn per seed, or a run covering
// a seed-dependent part of it, qps moved by up to a quarter between seeds.
std::vector<Query> StratifiedQueries(const kbtim::Environment& env,
                                     uint64_t seed, uint32_t per_length,
                                     uint32_t min_keywords,
                                     uint32_t max_keywords) {
  kbtim::QueryGeneratorOptions options;
  options.queries_per_length = per_length;
  options.min_keywords = min_keywords;
  options.max_keywords = max_keywords;
  options.k = kK;
  std::vector<Query> generated = Must(env.Queries(options), "Queries");
  std::vector<std::vector<Query>> by_length(max_keywords + 1);
  for (Query& q : generated) by_length[q.topics.size()].push_back(q);
  std::mt19937_64 rng(Mix(seed, 12));
  for (auto& group : by_length) std::shuffle(group.begin(), group.end(), rng);
  std::vector<uint32_t> lengths;
  for (uint32_t len = min_keywords; len <= max_keywords; ++len) {
    lengths.push_back(len);
  }
  std::vector<Query> out;
  for (uint32_t round = 0; round < per_length; ++round) {
    std::shuffle(lengths.begin(), lengths.end(), rng);
    for (uint32_t len : lengths) {
      if (round < by_length[len].size()) out.push_back(by_length[len][round]);
    }
  }
  if (out.empty()) throw SetupFailure("query generator returned nothing");
  return out;
}

kbtim::IndexBuildReport BuildIndex(const kbtim::Environment& env,
                                   const std::string& dir, uint64_t seed,
                                   Tracer* tracer) {
  kbtim::IndexBuildOptions options;
  options.epsilon = kEpsilon;
  options.max_k = 100;
  options.num_threads = kBuildThreads;
  options.partition_size = 100;
  options.seed = Mix(seed, 13);
  options.max_theta_per_keyword = uint64_t{1} << 22;
  Tracer::Span span(tracer, "index.build", 0);
  kbtim::IndexBuilder builder(env.graph(), env.tfidf(),
                              env.weights(options.model), options);
  auto report = Must(builder.Build(dir), "IndexBuilder::Build");
  Note("index built");
  return report;
}

double DirMb(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return static_cast<double>(bytes) / kMiB;
}

// ---- The closed loop -------------------------------------------------------

struct Sample {
  size_t request = 0;
  double latency_ms = 0.0;
  bool ok = false;
  bool traced = false;
  std::string failure;  // FailureOf the request's result
  SeedSetResult answer;
};

// The timed phase. In a traced run every other request carries a span,
// so `overhead_ms`, the traced minus the untraced p50, compares requests
// from the same stretch of the run.
struct LoopResult {
  std::vector<Sample> samples;
  double seconds = 0.0;
  uint64_t answered = 0;
  uint64_t failed = 0;
  double overhead_ms = 0.0;

  std::vector<double> Latencies() const {
    std::vector<double> out;
    out.reserve(samples.size());
    for (const Sample& s : samples) out.push_back(s.latency_ms);
    return out;
  }
};

// `clients` threads, each sending its next request only after the last
// one returned, until `seconds` have passed. Client c walks the request
// list from offset c * n / clients. A degraded answer counts as failed.
// With a tracer, request r of pass p carries a span when r + p is even:
// the traced half alternates with the untraced one request by request,
// and every request is traced on every other pass.
template <typename Call>
LoopResult ClosedLoop(uint32_t clients, size_t num_requests, double seconds,
                      Tracer* tracer, const char* span_name, Call call) {
  std::vector<std::vector<Sample>> per_client(clients);
  const double start = NowSeconds();
  const double deadline = start + seconds;
  std::vector<double> finish(clients, start);
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      size_t cursor = c * num_requests / clients;
      while (NowSeconds() < deadline) {
        Sample sample;
        sample.request = cursor % num_requests;
        sample.traced = tracer != nullptr &&
                        (sample.request + cursor / num_requests) % 2 == 0;
        ++cursor;
        const uint64_t query_id = 1 + per_client[c].size() * clients + c;
        const double t0 = NowSeconds();
        kbtim::StatusOr<SeedSetResult> result{kbtim::Status::OK()};
        {
          Tracer::Span span(sample.traced ? tracer : nullptr, span_name,
                            query_id);
          result = call(sample.request);
        }
        sample.latency_ms = Ms(NowSeconds() - t0);
        sample.failure = FailureOf(result);
        sample.ok = sample.failure.empty();
        if (result.ok()) sample.answer = std::move(*result);
        per_client[c].push_back(std::move(sample));
      }
      finish[c] = NowSeconds();
    });
  }
  for (std::thread& t : threads) t.join();
  LoopResult out;
  out.seconds = *std::max_element(finish.begin(), finish.end()) - start;
  std::vector<double> traced, plain;
  for (auto& samples : per_client) {
    for (Sample& s : samples) {
      (s.ok ? out.answered : out.failed) += 1;
      (s.traced ? traced : plain).push_back(s.latency_ms);
      out.samples.push_back(std::move(s));
    }
  }
  if (tracer != nullptr) out.overhead_ms = Median(traced) - Median(plain);
  return out;
}

const WorkloadSpec& SpecOf(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return spec;
  }
  throw SetupFailure("unknown workload '" + name + "'");
}

// What every workload measures around its timed phase.
struct Measured {
  double setup_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
};

Result Finish(const Options& options, const LoopResult& timed,
              const Measured& measured, const LayerValues& layers) {
  std::string first_failure;
  for (const Sample& s : timed.samples) {
    if (!s.ok) {
      first_failure = s.failure;
      break;
    }
  }
  Require("no failed timed request",
          CheckNoFailures(timed.samples.size(), timed.failed, first_failure));
  Result result;
  result.attempted = timed.samples.size();
  result.failed = timed.failed;
  if (options.trace) {
    for (const LayerMetric& m : kLayerMetrics) {
      const auto it = layers.find(m.name);
      result.Add(m.name, it == layers.end() ? 0.0 : it->second, m.unit);
    }
    return result;
  }
  const double answered =
      static_cast<double>(std::max<uint64_t>(1, timed.answered));
  const std::vector<double> latencies = timed.Latencies();
  result.Add("qps", static_cast<double>(timed.answered) / timed.seconds,
             "queries/s");
  result.Add("p50_ms", Median(latencies), "ms");
  result.Add("tail_ms",
             Percentile(latencies, SpecOf(options.workload).tail_percentile),
             "ms");
  result.Add("cpu_ms_per_query", Ms(measured.cpu_s) / answered, "ms");
  result.Add("setup_s", measured.setup_s, "s");
  result.Add("peak_rss_mb", measured.peak_rss_mb, "MB");
  return result;
}

void WriteTrace(const Options& options, const Tracer& tracer) {
  if (!options.trace || options.trace_out.empty()) return;
  if (!tracer.WriteJsonLines(options.trace_out)) {
    throw SetupFailure("cannot write trace to " + options.trace_out);
  }
}

// Every timed answer equals the reference answer of its request.
void CheckTimedAnswers(const char* check, const LoopResult& loop,
                       const std::vector<SeedSetResult>& reference) {
  for (const Sample& s : loop.samples) {
    if (!s.ok) continue;  // failed requests fail the run in Finish()
    Require(check, CheckSameAnswer(s.answer, reference[s.request]));
  }
}

// ---- warm_mix and cache_pressure ------------------------------------------

Result RunServiceMix(const Options& options, bool pressure) {
  Tracer tracer(options.trace);
  LayerValues layers;
  const auto env = MakeEnvironment(kbtim::DefaultNewsSpec(kTopics), &tracer);
  const uint32_t n = env->graph().num_vertices();
  const std::string dir = options.workdir + "/index";
  BuildIndex(*env, dir, options.seed, &tracer);
  // cache_pressure replays its pool in one fixed order. Under LRU
  // eviction its latencies follow the order's reuse distances: with a
  // seed-drawn order its p50 moved by a quarter between seeds while qps
  // held. The seed still draws the index's samples.
  const std::vector<Query> queries = StratifiedQueries(
      *env, pressure ? 0 : options.seed, pressure ? 10 : 20, 1, 6);
  // Warm-up and checks: request 2j is query j on IRR, 2j + 1 the same
  // query on RR.
  std::vector<ServiceRequest> requests;
  for (const Query& q : queries) {
    for (QueryEngine engine : {QueryEngine::kIrr, QueryEngine::kRr}) {
      ServiceRequest request;
      request.query = q;
      request.engine = engine;
      requests.push_back(request);
    }
  }
  // Timed phase: per query j, IRR for j, RR for j and RR for query
  // j + n/2. One IRR to two RR puts the median latency inside the RR
  // distribution; at one to one it fell in the gap between the engines'
  // two modes and moved by a quarter between seeds.
  std::vector<size_t> timed_requests;
  for (size_t j = 0; j < queries.size(); ++j) {
    timed_requests.push_back(2 * j);
    timed_requests.push_back(2 * j + 1);
    timed_requests.push_back(2 * ((j + queries.size() / 2) % queries.size()) +
                             1);
  }

  kbtim::QueryServiceOptions service_options;
  service_options.num_workers = pressure ? 1 : 2;
  service_options.max_pending = 1024;
  service_options.cache.block_cache_bytes =
      pressure ? kPressureCacheBytes : kLargeCacheBytes;
  auto service = Must(kbtim::QueryService::Create(dir, service_options),
                      "QueryService::Create");
  const std::shared_ptr<kbtim::KeywordCache> cache = service->cache();

  // Warm-up: every request once, in order, from one thread.
  std::vector<SeedSetResult> first;
  for (const ServiceRequest& request : requests) {
    first.push_back(Must(service->Execute(request), "warm-up query"));
  }
  cache->WaitForPrefetches();
  service->ResetLatencyWindow();

  Note("warm-up done");
  Measured measured;
  measured.setup_s = SecondsSinceProcessStart();
  const kbtim::IoStats io_before = kbtim::IoCounter::Snapshot();
  const kbtim::KeywordCacheStats cache_before = cache->stats();
  const kbtim::ServiceStats service_before = service->stats();
  const double cpu_before = SelfCpuSeconds();
  const LoopResult timed = ClosedLoop(
      pressure ? 1 : 2, timed_requests.size(), options.seconds,
      options.trace ? &tracer : nullptr, "serving.execute",
      [&](size_t i) { return service->Execute(requests[timed_requests[i]]); });
  measured.cpu_s = SelfCpuSeconds() - cpu_before;
  measured.peak_rss_mb = SelfPeakRssMb();
  const kbtim::IoStats io = kbtim::IoCounter::Snapshot() - io_before;
  const kbtim::KeywordCacheStats cache_after = cache->stats();
  const kbtim::ServiceStats service_after = service->stats();
  const double answered =
      static_cast<double>(std::max<uint64_t>(1, timed.answered));

  if (options.trace) {
    layers["graph.generate_s"] = tracer.TotalSelfSeconds("graph.generate");
    layers["index.build_s"] = tracer.TotalSelfSeconds("index.build");
    layers["index.disk_mb"] = DirMb(dir);
    const double hits =
        static_cast<double>(cache_after.hits - cache_before.hits);
    const double misses =
        static_cast<double>(cache_after.misses - cache_before.misses);
    layers["index.cache_hit_rate"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
    layers["index.evictions_per_query"] =
        static_cast<double>(cache_after.evictions - cache_before.evictions) /
        answered;
    layers["storage.read_ops_per_query"] =
        static_cast<double>(io.read_ops) / answered;
    layers["storage.read_mb_per_query"] =
        static_cast<double>(io.read_bytes) / kMiB / answered;
    layers["serving.queue_ms"] = service_after.mean_queue_ms;
    const uint64_t rr_queries =
        service_after.rr_queries - service_before.rr_queries;
    layers["serving.rr_batch_share"] =
        rr_queries > 0
            ? static_cast<double>(service_after.rr_batched_queries -
                                  service_before.rr_batched_queries) /
                  static_cast<double>(rr_queries)
            : 0.0;
    layers["trace.overhead_ms"] = timed.overhead_ms;

    // Replay: the first queries of the mix, call by call, on the
    // service's own cache (its workers are idle now).
    const kbtim::IrrIndex irr = Must(kbtim::IrrIndex::Open(cache), "IrrIndex");
    double rr_sets = 0.0;
    const size_t replays = std::min(kReplayQueries, queries.size());
    for (size_t j = 0; j < replays; ++j) {
      const Query& q = queries[j];
      const uint64_t id = kReplayQueryBase + j;
      Tracer::Span root(&tracer, "replay", id);
      kbtim::QueryBudget budget;
      {
        Tracer::Span span(&tracer, "index.rr_budget", id);
        budget = Must(kbtim::ComputeQueryBudget(cache->meta(), q),
                      "ComputeQueryBudget");
      }
      BlockMap blocks;
      for (const auto& [topic, sets] : budget.per_keyword) {
        if (sets == 0) continue;
        const uint64_t misses_before = cache->stats().misses;
        Tracer::Span span(&tracer, "index.block_hit", id);
        blocks[topic] = Must(cache->GetRrKeyword(topic, sets), "GetRrKeyword");
        if (cache->stats().misses > misses_before) {
          span.set_name("index.block_load");
        }
      }
      for (kbtim::TopicId topic : q.topics) {
        const auto entry = Must(cache->GetIrrKeyword(topic), "GetIrrKeyword");
        if (entry->num_partitions == 0) continue;
        const uint64_t misses_before = cache->stats().misses;
        Tracer::Span span(&tracer, "index.block_hit", id);
        Must(cache->GetIrrPartition(*entry, 0), "GetIrrPartition");
        if (cache->stats().misses > misses_before) {
          span.set_name("index.block_load");
        }
      }
      {
        Tracer::Span span(&tracer, "index.irr_query", id);
        Must(irr.Query(q), "IrrIndex::Query");
      }
      SeedSetResult greedy;
      {
        Tracer::Span span(&tracer, "index.rr_greedy", id);
        greedy = kbtim::RunRrGreedy(q, budget, blocks, n);
      }
      rr_sets += static_cast<double>(greedy.stats.rr_sets_loaded);
      Require("replayed RR greedy equals the served RR answer",
              CheckSameAnswer(greedy, first[2 * j + 1]));
    }
    const uint64_t lo = kReplayQueryBase;
    const uint64_t hi = kReplayQueryBase + replays;
    layers["index.irr_query_ms"] =
        Median(tracer.PerQuerySelfMs("index.irr_query", lo, hi));
    layers["index.rr_greedy_ms"] =
        Median(tracer.PerQuerySelfMs("index.rr_greedy", lo, hi));
    layers["index.rr_sets_per_query"] =
        rr_sets / static_cast<double>(replays);
    const std::vector<double> loads =
        tracer.PerQuerySelfMs("index.block_load", lo, hi);
    double load_sum = 0.0;
    for (double v : loads) load_sum += v;
    layers["index.block_load_ms"] =
        loads.empty() ? 0.0 : load_sum / static_cast<double>(loads.size());
  }

  // ---- Checks (outside the timed phase) ----
  const char* reads_check = pressure
                                ? "cache_pressure reads in the timed phase"
                                : "warm_mix performs no reads when warm";
  if (pressure ? io.read_ops == 0 : io.read_ops != 0) {
    throw CheckFailure(reads_check,
                       std::to_string(io.read_ops) + " read ops");
  }
  std::vector<SeedSetResult> reference;
  std::shared_ptr<kbtim::KeywordCache> reference_cache = cache;
  if (pressure) {
    service.reset();
    kbtim::KeywordCacheOptions large;
    large.block_cache_bytes = kLargeCacheBytes;
    reference_cache = Must(kbtim::KeywordCache::Create(dir, large),
                           "KeywordCache::Create");
    const auto rr = Must(kbtim::RrIndex::Open(reference_cache), "RrIndex");
    const auto irr = Must(kbtim::IrrIndex::Open(reference_cache), "IrrIndex");
    for (size_t i = 0; i < requests.size(); ++i) {
      const Query& q = requests[i].query;
      reference.push_back(requests[i].engine == QueryEngine::kRr
                              ? Must(rr.Query(q), "RrIndex::Query")
                              : Must(irr.Query(q), "IrrIndex::Query"));
      Require("pressured answer equals the large-cache answer",
              CheckSameAnswer(first[i], reference[i]));
    }
  } else {
    reference = first;
  }
  std::vector<SeedSetResult> timed_reference;
  for (size_t r : timed_requests) timed_reference.push_back(reference[r]);
  CheckTimedAnswers("timed answer equals the request's reference answer",
                    timed, timed_reference);
  for (size_t j = 0; j < queries.size(); ++j) {
    const SeedSetResult& irr_answer = reference[2 * j];
    const SeedSetResult& rr_answer = reference[2 * j + 1];
    Require("IRR seed set", CheckSeedSet(irr_answer, kK, n));
    Require("RR seed set", CheckSeedSet(rr_answer, kK, n));
    Require("RR and IRR select the same seeds (Theorem 3)",
            CheckSameSeeds(rr_answer, irr_answer));
    const kbtim::QueryBudget budget = Must(
        kbtim::ComputeQueryBudget(reference_cache->meta(), queries[j]),
        "ComputeQueryBudget");
    Require("RR influence equals the recount of covered RR sets",
            CheckRrRecount(rr_answer, budget,
                           LoadBlocks(*reference_cache, budget), n));
  }
  WriteTrace(options, tracer);
  return Finish(options, timed, measured, layers);
}

// ---- online_wris ----------------------------------------------------------

Result RunOnlineWris(const Options& options) {
  Tracer tracer(options.trace);
  LayerValues layers;
  const auto env = MakeEnvironment(kbtim::DefaultTwitterSpec(kTopics), &tracer);
  const uint32_t n = env->graph().num_vertices();
  // QueryService needs an index directory; this one holds only a meta
  // file with no RR or IRR structures, so nothing is read at query time.
  const std::string dir = options.workdir + "/meta_only";
  std::filesystem::create_directories(dir);
  kbtim::IndexMeta meta;
  meta.epsilon = kEpsilon;
  meta.num_vertices = n;
  meta.num_topics = kTopics;
  meta.topics.resize(kTopics);
  Must(kbtim::WriteIndexMeta(meta, kbtim::MetaFileName(dir)),
       "WriteIndexMeta");

  kbtim::QueryServiceOptions service_options;
  service_options.num_workers = 1;
  service_options.wris.epsilon = kEpsilon;
  service_options.wris.num_threads = 2;
  // The solver keeps its default sampling seed: θ follows from a sampled
  // OPT bound, and a per-run seed moved the work per solve by about a
  // tenth. The run's seed orders the query pool and seeds the checks.
  kbtim::QueryService::OnlineBackend backend;
  backend.graph = &env->graph();
  backend.tfidf = &env->tfidf();
  backend.model = kbtim::PropagationModel::kIndependentCascade;
  backend.in_edge_weights = &env->ic_probs();
  auto service = Must(
      kbtim::QueryService::Create(dir, service_options, backend),
      "QueryService::Create");
  const std::vector<Query> queries =
      StratifiedQueries(*env, options.seed, 10, 1, 3);
  const auto wris_request = [&](size_t i) {
    ServiceRequest request;
    request.query = queries[i];
    request.engine = QueryEngine::kWris;
    return request;
  };
  // Warm-up: the first solves size the samplers' and workspace buffers.
  for (size_t i = queries.size() - 2; i < queries.size(); ++i) {
    Must(service->Execute(wris_request(i)), "warm-up WRIS query");
  }
  service->ResetLatencyWindow();

  Note("warm-up done");
  Measured measured;
  measured.setup_s = SecondsSinceProcessStart();
  const double cpu_before = SelfCpuSeconds();
  const LoopResult timed =
      ClosedLoop(1, queries.size(), options.seconds,
                 options.trace ? &tracer : nullptr, "serving.execute",
                 [&](size_t i) { return service->Execute(wris_request(i)); });
  measured.cpu_s = SelfCpuSeconds() - cpu_before;
  measured.peak_rss_mb = SelfPeakRssMb();
  const double queue_ms = service->stats().mean_queue_ms;
  service.reset();

  if (options.trace) {
    std::vector<double> sampling, greedy, other;
    double theta = 0.0, sampling_sum = 0.0;
    for (const Sample& s : timed.samples) {
      if (!s.ok) continue;
      const kbtim::SolverStats& st = s.answer.stats;
      sampling.push_back(Ms(st.sampling_seconds));
      greedy.push_back(Ms(st.greedy_seconds));
      other.push_back(
          Ms(st.total_seconds - st.sampling_seconds - st.greedy_seconds));
      theta += static_cast<double>(st.theta);
      sampling_sum += st.sampling_seconds;
    }
    const double solves = static_cast<double>(
        std::max<size_t>(1, sampling.size()));
    layers["graph.generate_s"] = tracer.TotalSelfSeconds("graph.generate");
    layers["sampling.wris_sampling_ms"] = Median(sampling);
    layers["coverage.wris_greedy_ms"] = Median(greedy);
    layers["sampling.wris_other_ms"] = Median(other);
    layers["propagation.rr_sets_per_s"] =
        sampling_sum > 0 ? theta / sampling_sum : 0.0;
    layers["sampling.theta_per_solve"] = theta / solves;
    layers["serving.queue_ms"] = queue_ms;
    layers["trace.overhead_ms"] = timed.overhead_ms;
  }

  // ---- Checks ----
  std::map<size_t, const SeedSetResult*> by_request;
  for (const Sample& s : timed.samples) {
    if (!s.ok) continue;
    Require("WRIS seed set", CheckSeedSet(s.answer, kK, n));
    const auto [it, fresh] = by_request.emplace(s.request, &s.answer);
    if (!fresh) {
      Require("a repeated WRIS query gets the same answer",
              CheckSameAnswer(s.answer, *it->second));
    }
  }
  kbtim::OnlineSolverOptions one_thread = service_options.wris;
  one_thread.num_threads = 1;
  const kbtim::WrisSolver solver1(
      env->graph(), env->tfidf(), backend.model, env->ic_probs(), one_thread);
  const kbtim::WrisSolver solver2(env->graph(), env->tfidf(), backend.model,
                                  env->ic_probs(), service_options.wris);
  const kbtim::ForwardSimulator simulator(env->graph(), backend.model,
                                          env->ic_probs());
  size_t sampled = 0;
  for (const auto& [request, answer] : by_request) {
    if (sampled++ == kWrisSampled) break;
    const Query& q = queries[request];
    Require("WRIS answer at 1 sampling thread",
            CheckSameAnswer(Must(solver1.Solve(q), "WRIS 1 thread"), *answer));
    Require("WRIS answer at 2 sampling threads",
            CheckSameAnswer(Must(solver2.Solve(q), "WRIS 2 threads"),
                            *answer));
    std::vector<double> weight(n, 0.0);
    for (const auto& [v, phi] : env->tfidf().SparsePhi(q)) weight[v] = phi;
    std::vector<double> batch_means;
    for (uint32_t b = 0; b < kMcBatches; ++b) {
      kbtim::SpreadEstimateOptions mc;
      mc.num_simulations = kMcSimsPerBatch;
      mc.num_threads = 2;
      mc.seed = Mix(options.seed, 100 + b);
      batch_means.push_back(
          simulator.EstimateWeightedSpread(answer->seeds, weight, mc));
    }
    double mean = 0.0;
    for (double m : batch_means) mean += m;
    mean /= kMcBatches;
    double var = 0.0;
    for (double m : batch_means) var += (m - mean) * (m - mean);
    const double stderr_mean = std::sqrt(var / (kMcBatches - 1) / kMcBatches);
    Require("WRIS influence agrees with Monte Carlo",
            CheckWrisEstimate(answer->estimated_influence, mean, stderr_mean,
                              kEpsilon));
  }
  WriteTrace(options, tracer);
  return Finish(options, timed, measured, layers);
}

// ---- routed_rr -------------------------------------------------------------

Result RunRouted(const Options& options) {
  Tracer tracer(options.trace);
  LayerValues layers;
  const auto env = MakeEnvironment(kbtim::DefaultNewsSpec(kTopics), &tracer);
  const uint32_t n = env->graph().num_vertices();
  const std::string dir = options.workdir + "/index";
  BuildIndex(*env, dir, options.seed, &tracer);
  const std::vector<Query> queries =
      StratifiedQueries(*env, options.seed, 5, 1, 6);

  ShardFleet fleet(dir, kShards, kShardCacheBytes);
  Note("shards started");
  kbtim::net::RouterOptions router_options;
  router_options.replication_factor = 1;
  router_options.attempt_timeout_ms = 60000.0;
  router_options.client.connect_timeout_ms = 5000.0;
  router_options.client.io_timeout_ms = 60000.0;
  auto router = Must(
      kbtim::net::Router::Create(fleet.addresses(), router_options),
      "Router::Create");
  std::vector<kbtim::net::ShardClient> clients;
  for (const auto& address : fleet.addresses()) {
    clients.emplace_back(address.host, address.port, router_options.client);
  }

  // Warm-up: each keyword's block at the largest budget of the mix,
  // fetched once from its owning shard, so every shard cache holds its
  // share of the working set before the timed phase. The shards warm up
  // side by side, one thread each.
  std::map<kbtim::TopicId, uint64_t> max_budget;
  for (const Query& q : queries) {
    const auto budget = Must(kbtim::ComputeQueryBudget(router->meta(), q),
                             "ComputeQueryBudget");
    for (const auto& [topic, sets] : budget.per_keyword) {
      max_budget[topic] = std::max(max_budget[topic], sets);
    }
  }
  std::vector<kbtim::Status> warm_status(clients.size(), kbtim::Status::OK());
  {
    std::vector<std::thread> warmers;
    for (size_t shard = 0; shard < clients.size(); ++shard) {
      warmers.emplace_back([&, shard] {
        for (const auto& [topic, sets] : max_budget) {
          if (sets == 0 || router->ReplicasOf(topic).front() != shard) {
            continue;
          }
          kbtim::RrFetchRequest request;
          request.topics = {topic};
          request.budgets = {sets};
          const auto fetched = clients[shard].FetchRr(request);
          if (!fetched.ok()) {
            warm_status[shard] = fetched.status();
            return;
          }
        }
      });
    }
    for (std::thread& t : warmers) t.join();
  }
  for (const kbtim::Status& status : warm_status) {
    Must(status, "warm-up FetchRr");
  }

  Note("warm-up done");
  Measured measured;
  measured.setup_s = SecondsSinceProcessStart();
  const kbtim::net::RouterStats router_before = router->stats();
  const double cpu_before = SelfCpuSeconds() + fleet.CpuSeconds();
  const LoopResult timed =
      ClosedLoop(1, queries.size(), options.seconds,
                 options.trace ? &tracer : nullptr, "net.router_query",
                 [&](size_t i) { return router->Query(queries[i]); });
  measured.cpu_s = SelfCpuSeconds() + fleet.CpuSeconds() - cpu_before;
  const double self_rss = SelfPeakRssMb();
  const kbtim::net::RouterStats router_after = router->stats();

  std::map<size_t, const SeedSetResult*> by_request;
  for (const Sample& s : timed.samples) {
    if (s.ok) by_request.emplace(s.request, &s.answer);
  }
  if (options.trace) {
    const double answered =
        static_cast<double>(std::max<uint64_t>(1, timed.answered));
    layers["graph.generate_s"] = tracer.TotalSelfSeconds("graph.generate");
    layers["index.build_s"] = tracer.TotalSelfSeconds("index.build");
    layers["index.disk_mb"] = DirMb(dir);
    layers["net.rpcs_per_query"] =
        static_cast<double>(router_after.scatter_rpcs -
                            router_before.scatter_rpcs) /
        answered;
    layers["trace.overhead_ms"] = timed.overhead_ms;

    // Replay: fetch each query's blocks from their owners, re-encode and
    // decode them as a shard and the router do, then run the greedy.
    double wire_bytes = 0.0, rr_sets = 0.0;
    const size_t replays = std::min(kRoutedReplayQueries, queries.size());
    for (size_t j = 0; j < replays; ++j) {
      const Query& q = queries[j];
      const uint64_t id = kReplayQueryBase + j;
      Tracer::Span root(&tracer, "replay", id);
      kbtim::QueryBudget budget;
      {
        Tracer::Span span(&tracer, "index.rr_budget", id);
        budget = Must(kbtim::ComputeQueryBudget(router->meta(), q),
                      "ComputeQueryBudget");
      }
      std::map<uint32_t, kbtim::RrFetchRequest> by_shard;
      for (const auto& [topic, sets] : budget.per_keyword) {
        if (sets == 0) continue;
        auto& request = by_shard[router->ReplicasOf(topic).front()];
        request.topics.push_back(topic);
        request.budgets.push_back(sets);
      }
      BlockMap blocks;
      for (const auto& [shard, request] : by_shard) {
        kbtim::RrFetchResult fetched;
        {
          Tracer::Span span(&tracer, "net.fetch_rpc", id);
          fetched = Must(clients[shard].FetchRr(request), "FetchRr");
        }
        std::string payload;
        {
          Tracer::Span span(&tracer, "net.encode", id);
          payload = kbtim::net::EncodeFetchResponse(fetched);
        }
        wire_bytes += static_cast<double>(payload.size());
        kbtim::RrFetchResult decoded;
        {
          Tracer::Span span(&tracer, "net.decode", id);
          decoded = Must(kbtim::net::DecodeFetchResponse(payload),
                         "DecodeFetchResponse");
        }
        for (size_t t = 0; t < request.topics.size(); ++t) {
          blocks[request.topics[t]] = decoded.blocks[t];
        }
      }
      SeedSetResult greedy;
      {
        Tracer::Span span(&tracer, "index.rr_greedy", id);
        greedy = kbtim::RunRrGreedy(q, budget, blocks, n);
      }
      rr_sets += static_cast<double>(greedy.stats.rr_sets_loaded);
      const auto routed = by_request.find(j);
      if (routed != by_request.end()) {
        Require("replayed greedy over fetched blocks equals the routed answer",
                CheckSameAnswer(greedy, *routed->second));
      }
    }
    const uint64_t lo = kReplayQueryBase;
    const uint64_t hi = kReplayQueryBase + replays;
    const double r = static_cast<double>(replays);
    layers["net.fetch_rpc_ms"] =
        Median(tracer.PerQuerySelfMs("net.fetch_rpc", lo, hi));
    layers["net.encode_ms"] =
        Median(tracer.PerQuerySelfMs("net.encode", lo, hi));
    layers["net.decode_ms"] =
        Median(tracer.PerQuerySelfMs("net.decode", lo, hi));
    layers["index.rr_greedy_ms"] =
        Median(tracer.PerQuerySelfMs("index.rr_greedy", lo, hi));
    layers["index.rr_sets_per_query"] = rr_sets / r;
    layers["net.wire_mb_per_query"] = wire_bytes / kMiB / r;
  }
  clients.clear();
  router.reset();
  measured.peak_rss_mb = self_rss + fleet.Stop();

  // ---- Checks: byte equality with the in-process RR index ----
  kbtim::KeywordCacheOptions large;
  large.block_cache_bytes = kLargeCacheBytes;
  const auto cache =
      Must(kbtim::KeywordCache::Create(dir, large), "KeywordCache::Create");
  const auto rr = Must(kbtim::RrIndex::Open(cache), "RrIndex");
  std::vector<SeedSetResult> golden(queries.size());
  for (const auto& [request, answer] : by_request) {
    const Query& q = queries[request];
    golden[request] = Must(rr.Query(q), "RrIndex::Query");
    Require("RR seed set", CheckSeedSet(golden[request], kK, n));
    const kbtim::QueryBudget budget =
        Must(kbtim::ComputeQueryBudget(cache->meta(), q), "ComputeQueryBudget");
    Require("RR influence equals the recount of covered RR sets",
            CheckRrRecount(golden[request], budget, LoadBlocks(*cache, budget),
                           n));
  }
  CheckTimedAnswers("routed answer equals in-process RrIndex::Query",
                    timed, golden);
  WriteTrace(options, tracer);
  return Finish(options, timed, measured, layers);
}

}  // namespace

BlockMap LoadBlocks(kbtim::KeywordCache& cache,
                    const kbtim::QueryBudget& budget) {
  BlockMap blocks;
  for (const auto& [topic, sets] : budget.per_keyword) {
    if (sets == 0) continue;
    blocks[topic] = Must(cache.GetRrKeyword(topic, sets), "GetRrKeyword");
  }
  return blocks;
}

Result RunWorkload(const Options& options) {
  const std::string name = SpecOf(options.workload).name;
  if (name == "warm_mix") return RunServiceMix(options, false);
  if (name == "cache_pressure") return RunServiceMix(options, true);
  if (name == "online_wris") return RunOnlineWris(options);
  return RunRouted(options);
}

}  // namespace perfbench
