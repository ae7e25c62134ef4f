#ifndef OGDP_PERFBENCH_COMMON_H_
#define OGDP_PERFBENCH_COMMON_H_

// Shared pieces of the repository benchmark: parsed arguments, the pinned
// knob set, the result report, result-only digests, and small statistics
// helpers. Everything here talks to the libraries through public headers.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/analysis_suite.h"
#include "core/ingestion.h"
#include "corpus/portal_profile.h"
#include "corpus/snapshot.h"
#include "fetch/fault_schedule.h"
#include "serve/query_engine.h"

namespace perfbench {

using namespace ogdp;

class Tracer;

/// Command line of one benchmark run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Private scratch directory of this run (created and removed by run.py).
  std::string work_dir;
  /// Where a traced run writes its Chrome-trace span dump.
  std::string trace_file;
  /// Tiny corpora for the smoke self-test (smoke.py).
  bool smoke = false;
};

/// Every knob the libraries would otherwise resolve from an OGDP_*
/// environment variable, pinned through API options instead.
struct Knobs {
  size_t threads = 4;
  size_t fd_memory_budget_bytes = size_t{64} << 20;
  size_t analysis_cache_budget_bytes = size_t{1} << 30;
  size_t result_cache_budget_bytes = size_t{64} << 10;
  size_t shards = 4;
  size_t engine_workers = 4;
  size_t client_queue_capacity = size_t{1} << 16;
  std::string cache_dir;  // "" = durability off
};

/// The pinned knobs as library option structs. The query budget
/// (time_budget_ms = 0, no candidate cap) and the fetch fault profile are
/// fixed per workload rather than knobs; the details line prints them from
/// the structs the run passes.
core::AnalysisSuiteOptions SuiteOptions(const Knobs& knobs);
core::IngestOptions IngestOptionsFor(const fetch::FaultProfile& faults);
serve::ServeOptions ServeOptionsFor(const Knobs& knobs);
serve::QueryEngineOptions EngineOptionsFor(const Knobs& knobs);
serve::QueryBudget UnlimitedBudget();

/// The crawl's transient-only fetch fault profile: every scripted fault
/// is retryable and max_transient_faults < RetryPolicy::max_attempts, so
/// faults cost retries and virtual time but never change fetched bytes.
fetch::FaultProfile TransientFaults(uint64_t seed);
/// A fault profile's rates and cap as a JSON object, for the details line.
std::string FaultsJson(const fetch::FaultProfile& faults);

/// The four calibrated portals at `scale`, as epoch-0 snapshots in
/// generator order. Content (and, through ChurnForPortal, its evolution)
/// is the calibrated corpus for every seed, so every seed costs about the
/// same; see CrawlOrder for what the seed changes.
std::vector<corpus::PortalSnapshot> CalibratedPortals(double scale);
/// `snapshot` with its datasets in the crawl order of `seed`: sorted by a
/// seeded hash of the dataset id, so the order is stable across epochs.
/// The order moves every table index, and with it the fetch schedule,
/// the FD dispatch, the sampled join/union pairs and every ranked answer.
corpus::PortalSnapshot CrawlOrder(corpus::PortalSnapshot snapshot,
                                  uint64_t seed);

/// Lends a snapshot's portal and ground truth to a PortalBundle without
/// copying its bytes; the destructor hands them back.
class Lent {
 public:
  explicit Lent(corpus::PortalSnapshot& source) : source_(source) {
    bundle.name = source.portal.name;
    bundle.portal = std::move(source.portal);
    bundle.truth = std::move(source.truth);
  }
  ~Lent() {
    source_.portal = std::move(bundle.portal);
    source_.truth = std::move(bundle.truth);
  }
  Lent(const Lent&) = delete;
  Lent& operator=(const Lent&) = delete;

  core::PortalBundle bundle;

 private:
  corpus::PortalSnapshot& source_;
};

/// Digest of the result fields of one portal analysis. Telemetry is left
/// out on purpose: the FD governor budget and pool peak, partition
/// declines/rebuilds, per-table lease peaks, and every fetch/retry/breaker
/// counter. Those legitimately vary with thread count and fault schedule;
/// the digest must not.
uint64_t ResultDigest(const core::PortalAnalysis& analysis);

/// One end-to-end or per-layer metric as printed in the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything a workload reports back to main().
struct Report {
  size_t attempted = 0;
  size_t failed = 0;
  /// False when any output check or validity check failed.
  bool correct = true;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;
  /// Extra key/value pairs for the details line (values are JSON text).
  std::vector<std::pair<std::string, std::string>> details;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void Detail(const std::string& key, const std::string& json_value) {
    details.emplace_back(key, json_value);
  }
  void Detail(const std::string& key, double value);
  /// Counts one checked operation; a mismatch marks the run incorrect.
  void Check(bool ok, const std::string& what);
  void Invalid(const std::string& why);
};

/// Workload entry points. Each fills `report` with the end-to-end metrics
/// (untraced) or the per-layer metrics (traced) of its workload.
void RunBatchFull(const Args& args, const Knobs& knobs, Report& report);
void RunCrawlEpochs(const Args& args, const Knobs& knobs, Report& report);
void RunQueryMix(const Args& args, const Knobs& knobs, Report& report);

// ------------------------------------------------------------ statistics

double Median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
double Percentile(std::vector<double> values, double q);
double SecondsSince(uint64_t start_ns);
uint64_t NowNs();
/// Peak resident set size of this process, MiB (VmHWM).
double PeakRssMb();
/// Returns freed heap to the kernel and restarts the VmHWM peak at the
/// current RSS, so PeakRssMb() covers one measured window; false when the
/// kernel does not support it.
bool ResetPeakRss();
/// Total bytes and count of regular files under `dir`.
std::pair<uint64_t, size_t> DirectoryBytes(const std::string& dir);
std::string JsonString(const std::string& s);
std::string JsonNumber(double v);
std::string JsonArray(const std::vector<double>& values);

}  // namespace perfbench

#endif  // OGDP_PERFBENCH_COMMON_H_
