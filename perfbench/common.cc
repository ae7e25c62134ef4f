#include "perfbench/common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <string>

#include "corpus/generator.h"
#include "util/hash.h"

namespace perfbench {

core::AnalysisSuiteOptions SuiteOptions(const Knobs& knobs) {
  core::AnalysisSuiteOptions options;
  options.compress = true;
  options.fd_memory_budget_bytes = knobs.fd_memory_budget_bytes;
  return options;
}

core::IngestOptions IngestOptionsFor(const fetch::FaultProfile& faults) {
  core::IngestOptions options;
  options.faults = faults;  // explicit: never OGDP_FETCH_FAULTS
  return options;
}

serve::ServeOptions ServeOptionsFor(const Knobs& knobs) {
  serve::ServeOptions options;
  options.shards = knobs.shards;  // explicit: never OGDP_SERVE_SHARDS
  return options;
}

serve::QueryEngineOptions EngineOptionsFor(const Knobs& knobs) {
  serve::QueryEngineOptions options;
  options.result_cache_budget = knobs.result_cache_budget_bytes;
  options.client_queue_capacity = knobs.client_queue_capacity;
  return options;
}

serve::QueryBudget UnlimitedBudget() {
  serve::QueryBudget budget;
  budget.time_budget_ms = 0;  // explicit: never OGDP_QUERY_BUDGET_MS
  return budget;
}

fetch::FaultProfile TransientFaults(uint64_t seed) {
  fetch::FaultProfile faults;
  faults.timeout_rate = 0.04;
  faults.http5xx_rate = 0.04;
  faults.rate_limit_rate = 0.04;
  faults.truncated_rate = 0.02;
  faults.slow_read_rate = 0.02;
  faults.checksum_rate = 0.02;
  faults.permanent_rate = 0;
  faults.max_transient_faults = 2;
  faults.seed = MixUint64(seed ^ 0xfa017ULL);
  return faults;
}

std::string FaultsJson(const fetch::FaultProfile& f) {
  return "{\"timeout\":" + JsonNumber(f.timeout_rate) +
         ",\"http5xx\":" + JsonNumber(f.http5xx_rate) +
         ",\"rate_limit\":" + JsonNumber(f.rate_limit_rate) +
         ",\"truncated\":" + JsonNumber(f.truncated_rate) +
         ",\"slow_read\":" + JsonNumber(f.slow_read_rate) +
         ",\"checksum\":" + JsonNumber(f.checksum_rate) +
         ",\"permanent\":" + JsonNumber(f.permanent_rate) +
         ",\"max_transient_faults\":" + std::to_string(f.max_transient_faults) +
         "}";
}

std::vector<corpus::PortalSnapshot> CalibratedPortals(double scale) {
  std::vector<corpus::PortalSnapshot> portals;
  for (const corpus::PortalProfile& profile : corpus::AllPortalProfiles()) {
    corpus::GeneratedPortal g = corpus::CorpusGenerator(profile, scale).Generate();
    portals.push_back(
        corpus::PortalSnapshot{0, std::move(g.portal), std::move(g.truth)});
  }
  return portals;
}

corpus::PortalSnapshot CrawlOrder(corpus::PortalSnapshot snapshot,
                                  uint64_t seed) {
  const uint64_t salt = MixUint64(seed ^ 0xc4a71ULL);
  const auto rank = [salt](const core::Dataset& d) {
    return MixUint64(Fnv1a64(d.id) ^ salt);
  };
  std::stable_sort(snapshot.portal.datasets.begin(),
                   snapshot.portal.datasets.end(),
                   [&](const core::Dataset& a, const core::Dataset& b) {
                     return rank(a) < rank(b);
                   });
  return snapshot;
}

// ---------------------------------------------------------------- digest

namespace {

class Hasher {
 public:
  void U(uint64_t v) { h_ = HashCombine(h_, MixUint64(v)); }
  void D(double v) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(v));
    U(bits);
  }
  void S(const std::string& s) { U(Fnv1a64(s)); }
  void V(const std::vector<double>& v) {
    U(v.size());
    for (double x : v) D(x);
  }
  void V(const std::vector<size_t>& v) {
    U(v.size());
    for (size_t x : v) U(x);
  }
  void Summary(const stats::Summary& s) {
    U(s.count);
    for (double x : {s.sum, s.mean, s.median, s.min, s.max, s.p25, s.p75,
                     s.stddev}) {
      D(x);
    }
  }
  void Group(const profile::UniquenessGroup& g) {
    U(g.columns);
    for (double x : {g.avg_unique, g.median_unique, g.max_unique, g.avg_score,
                     g.median_score}) {
      D(x);
    }
  }
  void Pair(const join::JoinablePair& p) {
    U(p.a.table);
    U(p.a.column);
    U(p.b.table);
    U(p.b.column);
    D(p.jaccard);
    U(p.overlap);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = kFnv1a64Init;
};

}  // namespace

uint64_t ResultDigest(const core::PortalAnalysis& a) {
  Hasher h;
  h.S(a.portal_name);

  const core::SizeReport& s = a.size;
  for (uint64_t v : {uint64_t{s.total_datasets}, uint64_t{s.max_tables_per_dataset},
                     uint64_t{s.total_tables}, uint64_t{s.downloadable_tables},
                     uint64_t{s.readable_tables}, uint64_t{s.total_columns},
                     s.total_bytes, s.compressed_bytes, s.largest_table_bytes}) {
    h.U(v);
  }
  h.D(s.avg_tables_per_dataset);
  h.V(s.table_bytes_sorted);
  for (const auto& [year, bytes] : s.bytes_by_year) {
    h.U(static_cast<uint64_t>(year));
    h.U(bytes);
  }

  for (size_t c : a.metadata.counts) h.U(c);
  h.U(a.metadata.total);

  h.V(a.table_sizes.rows_per_table);
  h.V(a.table_sizes.cols_per_table);
  h.Summary(a.table_sizes.rows);
  h.Summary(a.table_sizes.cols);

  h.V(a.nulls.column_null_ratios);
  h.V(a.nulls.table_avg_null_ratios);
  for (size_t v : {a.nulls.total_columns, a.nulls.columns_with_nulls,
                   a.nulls.columns_half_empty, a.nulls.columns_all_null}) {
    h.U(v);
  }

  h.Group(a.uniqueness.text);
  h.Group(a.uniqueness.number);
  h.Group(a.uniqueness.all);
  h.V(a.uniqueness.unique_counts);
  h.V(a.uniqueness.scores);
  h.D(a.uniqueness.frac_score_below_01);
  h.D(a.uniqueness.frac_tables_with_key);

  for (size_t v : {a.keys.size1, a.keys.size2, a.keys.size3, a.keys.none,
                   a.keys.total}) {
    h.U(v);
  }

  // FD results only: the governor budget/peak, declines, rebuilds and
  // lease peaks are telemetry and stay out.
  const core::FdReport& f = a.fds;
  for (size_t v : {f.sample_tables, f.sample_columns, f.tables_with_fd,
                   f.tables_with_lhs1_fd}) {
    h.U(v);
  }
  h.D(f.avg_cols_per_table);
  h.V(f.decomposition_counts);
  h.D(f.avg_tables_after_decomp);
  h.D(f.avg_cols_in_partitions);
  h.D(f.avg_uniqueness_gain);

  const core::JoinReport& j = a.joins;
  for (size_t v : {j.total_pairs, j.total_tables, j.joinable_tables,
                   j.max_table_degree, j.total_columns, j.joinable_columns,
                   j.key_joinable_columns, j.nonkey_joinable_columns,
                   j.max_column_degree}) {
    h.U(v);
  }
  h.D(j.median_table_degree);
  h.D(j.median_column_degree);
  h.V(j.expansion_ratios);

  h.U(a.labeled_joins.size());
  for (const core::LabeledJoinPair& lp : a.labeled_joins) {
    h.Pair(lp.sample.pair);
    h.U(static_cast<uint64_t>(lp.sample.size_bucket));
    h.U(static_cast<uint64_t>(lp.sample.key_combo));
    h.U(static_cast<uint64_t>(lp.label));
    h.U(lp.intra_dataset ? 1 : 0);
    h.U(static_cast<uint64_t>(lp.join_type));
    h.D(lp.expansion_ratio);
  }

  const core::UnionReport& u = a.unions;
  for (size_t v : {u.total_tables, u.unionable_tables, u.max_degree,
                   u.unique_schemas, u.unionable_schemas,
                   u.single_dataset_schemas}) {
    h.U(v);
  }
  h.D(u.median_degree);
  h.D(u.avg_tables_per_schema);
  h.U(u.labeled_sample.size());
  for (const auto& lp : u.labeled_sample) {
    h.U(static_cast<uint64_t>(lp.label));
    h.U(static_cast<uint64_t>(lp.pattern));
  }

  // Ingest outcome counts; the fetch/retry/breaker counters are telemetry.
  const core::IngestStats& in = a.ingest;
  for (size_t v : {in.total_datasets, in.total_tables, in.downloadable_tables,
                   in.not_downloadable_tables, in.readable_tables,
                   in.rejected_not_csv, in.rejected_parse,
                   in.removed_wide_tables,
                   in.trailing_empty_columns_removed}) {
    h.U(v);
  }
  h.U(in.total_bytes);

  h.U(a.failed_resources.size());
  for (const core::ResourceRecord& r : a.failed_resources) {
    h.U(r.dataset_index);
    h.U(r.resource_index);
    h.S(r.resource_name);
    h.U(static_cast<uint64_t>(r.stage));
    h.S(r.status.ToString());
  }
  h.U(a.stages.size());
  for (const core::StageStatus& st : a.stages) {
    h.S(st.stage);
    h.S(st.status.ToString());
    h.U(st.degraded ? 1 : 0);
  }
  h.U(a.degraded ? 1 : 0);
  return h.value();
}

// ---------------------------------------------------------------- report

void Report::Detail(const std::string& key, double value) {
  Detail(key, JsonNumber(value));
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  correct = false;
  if (problems.size() < 20) problems.push_back("mismatch: " + what);
}

void Report::Invalid(const std::string& why) {
  correct = false;
  problems.push_back("invalid: " + why);
}

// ------------------------------------------------------------ statistics

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

bool ResetPeakRss() {
  // Hand the heap that earlier windows freed back to the kernel first, so
  // each window starts from the same resident baseline whichever threads'
  // arenas happened to keep free pages.
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

std::pair<uint64_t, size_t> DirectoryBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  uint64_t bytes = 0;
  size_t files = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      bytes += it->file_size(ec);
      ++files;
    }
  }
  return {bytes, files};
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + JsonNumber(values[i]);
  }
  return out + "]";
}

}  // namespace perfbench
