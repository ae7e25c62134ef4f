#ifndef OGDP_PERFBENCH_TRACE_H_
#define OGDP_PERFBENCH_TRACE_H_

// In-memory span recorder for the traced benchmark run. Spans are opened
// from the benchmark's own code around calls into each layer's public
// functions; nothing inside the libraries is instrumented. Each span has
// a name, start and end (steady clock), the span that was open on the same
// thread when it started (its parent), and an id (portal, epoch or query).

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  /// A disabled tracer records nothing; its scopes cost one branch.
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span: closes (records its end time) on destruction.
  class Scope {
   public:
    Scope(Scope&& other) noexcept : tracer_(other.tracer_), index_(other.index_) {
      other.tracer_ = nullptr;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope& operator=(Scope&&) = delete;
    ~Scope();

   private:
    friend class Tracer;
    Scope(Tracer* tracer, size_t index) : tracer_(tracer), index_(index) {}
    Tracer* tracer_;
    size_t index_;
  };

  /// Opens a span; `name` must outlive the tracer (string literals).
  Scope Span(const char* name, int64_t id = -1);

  /// Records an already finished span with no parent, e.g. one query from
  /// its due time to its completion, observed on another thread.
  void Record(const char* name, uint64_t start_ns, uint64_t end_ns,
              int64_t id);

  bool enabled() const { return enabled_; }
  size_t size() const;

  /// Sum of the durations of every span called `name`, seconds.
  double TotalSeconds(std::string_view name) const;
  /// Sum over spans called `name` of duration minus the time covered by
  /// their direct children, seconds.
  double SelfSeconds(std::string_view name) const;
  /// Share of the wall time of the spans called `root` that their direct
  /// children cover (1 when every instant is attributed to a stage).
  double Coverage(std::string_view root) const;

  /// Writes every span as Chrome trace-event JSON ("X" events).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Record_ {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    int64_t parent;
    int64_t id;
    uint32_t thread;
  };
  void Close(size_t index);
  std::vector<double> ChildSeconds() const;  // per span, under mu_

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Record_> spans_;
};

/// Cost of opening and closing one span on a scratch tracer, seconds.
double SpanCostSeconds();

}  // namespace perfbench

#endif  // OGDP_PERFBENCH_TRACE_H_
