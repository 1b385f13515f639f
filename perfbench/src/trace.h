// Benchmark-side tracing: a span around each call the benchmark makes
// into a layer of the program. A span records its name, start, end, the
// span that encloses it on the same thread and the query it serves.
// Spans are kept in memory and written out once, at the end of the run.
//
// A disabled tracer records nothing, so the untraced runs that give the
// end-to-end metrics pay one branch per call.
#ifndef KBTIM_PERFBENCH_TRACE_H_
#define KBTIM_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  double start = 0.0;  // seconds, steady clock
  double end = 0.0;
  int64_t parent = -1;  // index into the span list, -1 for a root
  uint64_t query = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// RAII span. The parent is the innermost open span of this thread on
  /// this tracer. The name may be set or changed before the span ends,
  /// e.g. once a cache lookup knows whether it missed.
  class Span {
   public:
    Span(Tracer* tracer, std::string name, uint64_t query);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    void set_name(std::string name) { name_ = std::move(name); }

   private:
    Tracer* tracer_;  // null when tracing is off
    std::string name_;
    uint64_t query_;
    int64_t parent_ = -1;
    int64_t slot_ = -1;
    double start_ = 0.0;
  };

  /// Summed self time, in seconds, of every span named `name`.
  double TotalSelfSeconds(const std::string& name) const;

  /// For each query id in [first_query, end_query) that has any span, the
  /// summed self time of its spans named `name`, in milliseconds (0 for a
  /// query without one).
  std::vector<double> PerQuerySelfMs(const std::string& name,
                                     uint64_t first_query,
                                     uint64_t end_query) const;

  /// Writes one JSON object per span. Returns false on an I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  /// Self time in seconds of every span, summed per (query, name): the
  /// span's duration minus the part of it its child spans cover.
  std::map<uint64_t, std::map<std::string, double>> SelfSecondsByQuery()
      const;

  int64_t Open(int64_t parent);
  void Close(int64_t slot, std::string name, uint64_t query, double start);

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

}  // namespace perfbench

#endif  // KBTIM_PERFBENCH_TRACE_H_
