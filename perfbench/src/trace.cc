#include "trace.h"

#include <cstdio>

#include "common.h"

namespace perfbench {
namespace {

// Innermost open span of the current thread, per tracer.
thread_local const Tracer* tls_tracer = nullptr;
thread_local int64_t tls_open = -1;

}  // namespace

Tracer::Span::Span(Tracer* tracer, std::string name, uint64_t query)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
      name_(std::move(name)),
      query_(query) {
  if (tracer_ == nullptr) return;
  if (tls_tracer != tracer_) {
    tls_tracer = tracer_;
    tls_open = -1;
  }
  parent_ = tls_open;
  slot_ = tracer_->Open(parent_);
  tls_open = slot_;
  start_ = NowSeconds();
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  tracer_->Close(slot_, std::move(name_), query_, start_);
  tls_open = parent_;
}

int64_t Tracer::Open(int64_t parent) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({});
  spans_.back().parent = parent;
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::Close(int64_t slot, std::string name, uint64_t query,
                   double start) {
  const double end = NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord& span = spans_[static_cast<size_t>(slot)];
  span.name = std::move(name);
  span.start = start;
  span.end = end;
  span.query = query;
}

std::map<uint64_t, std::map<std::string, double>> Tracer::SelfSecondsByQuery()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of one span run one after another on the span's thread, so
  // the part of the parent they cover is the sum of their durations.
  std::vector<double> covered(spans_.size(), 0.0);
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) {
      covered[static_cast<size_t>(span.parent)] += span.end - span.start;
    }
  }
  std::map<uint64_t, std::map<std::string, double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    out[span.query][span.name] += span.end - span.start - covered[i];
  }
  return out;
}

double Tracer::TotalSelfSeconds(const std::string& name) const {
  double total = 0.0;
  for (const auto& [query, by_name] : SelfSecondsByQuery()) {
    const auto it = by_name.find(name);
    if (it != by_name.end()) total += it->second;
  }
  return total;
}

std::vector<double> Tracer::PerQuerySelfMs(const std::string& name,
                                           uint64_t first_query,
                                           uint64_t end_query) const {
  std::vector<double> out;
  const auto by_query = SelfSecondsByQuery();
  for (auto it = by_query.lower_bound(first_query);
       it != by_query.end() && it->first < end_query; ++it) {
    const auto span = it->second.find(name);
    out.push_back(span == it->second.end() ? 0.0 : span->second * 1e3);
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"parent\": %lld, \"query\": %llu, "
                 "\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f}\n",
                 i, static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.query), s.name.c_str(),
                 s.start, s.end);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
