#include "perfbench/trace.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>

#include "perfbench/common.h"

namespace perfbench {

namespace {

// The innermost open span of the calling thread, per tracer.
struct OpenSpan {
  const Tracer* owner = nullptr;
  int64_t index = -1;
};
thread_local OpenSpan tls_open;

uint32_t ThreadTag() {
  return static_cast<uint32_t>(
      std::hash<std::thread::id>()(std::this_thread::get_id()) & 0xffff);
}

}  // namespace

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->Close(index_);
}

Tracer::Scope Tracer::Span(const char* name, int64_t id) {
  if (!enabled_) return Scope(nullptr, 0);
  const int64_t parent = tls_open.owner == this ? tls_open.index : -1;
  size_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = spans_.size();
    spans_.push_back(Record_{name, NowNs(), 0, parent, id, ThreadTag()});
  }
  tls_open = OpenSpan{this, static_cast<int64_t>(index)};
  return Scope(this, index);
}

void Tracer::Close(size_t index) {
  const uint64_t end = NowNs();
  int64_t parent = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[index].end_ns = end;
    parent = spans_[index].parent;
  }
  tls_open = OpenSpan{parent < 0 ? nullptr : this, parent};
}

void Tracer::Record(const char* name, uint64_t start_ns, uint64_t end_ns,
                    int64_t id) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Record_{name, start_ns, end_ns, -1, id, ThreadTag()});
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<double> Tracer::ChildSeconds() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Record_& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= s.start_ns) {
      child[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  return child;
}

double Tracer::TotalSeconds(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0;
  for (const Record_& s : spans_) {
    if (name == s.name && s.end_ns >= s.start_ns) {
      total += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  return total;
}

double Tracer::SelfSeconds(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<double> child = ChildSeconds();
  double total = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record_& s = spans_[i];
    if (name != s.name || s.end_ns < s.start_ns) continue;
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    total += std::max(0.0, dur - child[i]);
  }
  return total;
}

double Tracer::Coverage(std::string_view root) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<double> child = ChildSeconds();
  double wall = 0, covered = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record_& s = spans_[i];
    if (root != s.name || s.end_ns < s.start_ns) continue;
    wall += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    covered += child[i];
  }
  return wall > 0 ? covered / wall : 0;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(out, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record_& s = spans_[i];
    const uint64_t start = s.start_ns >= origin ? s.start_ns - origin : 0;
    const uint64_t dur = s.end_ns >= s.start_ns ? s.end_ns - s.start_ns : 0;
    std::fprintf(out,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%lld,\"id\":%lld}}%s\n",
                 s.name, s.thread, static_cast<double>(start) / 1e3,
                 static_cast<double>(dur) / 1e3, i,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.id),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

double SpanCostSeconds() {
  constexpr int kSpans = 20000;
  Tracer scratch(true);
  const uint64_t start = NowNs();
  for (int i = 0; i < kSpans; ++i) {
    auto outer = scratch.Span("cost.outer", i);
    auto inner = scratch.Span("cost.inner", i);
  }
  return SecondsSince(start) / (2.0 * kSpans);
}

}  // namespace perfbench
