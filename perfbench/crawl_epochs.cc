// crawl_epochs: the crawler that keeps analysis and index current. Each
// portal follows a seeded snapshot chain under its calibrated churn and a
// transient-only fetch fault profile, with one IncrementalState per portal
// over a private durable directory. One epoch is crawl to queryable:
// RunIncrementalAnalysis on all four portals, then QueryEngine::Refresh
// over their tables. Epoch 0 is set-up. Every epoch (and the restart) is
// checked against RunFullAnalysis on the same snapshot, off the clock.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/analysis.h"
#include "core/analysis_suite.h"
#include "core/incremental.h"
#include "core/storage_faults.h"
#include "corpus/snapshot.h"
#include "perfbench/common.h"
#include "perfbench/probes.h"
#include "perfbench/trace.h"
#include "serve/query_engine.h"

namespace perfbench {

namespace {

constexpr double kScale = 0.05;
constexpr double kSmokeScale = 0.01;
constexpr int kSetupRepeats = 3;
constexpr int kRestartRepeats = 3;
constexpr double kEpochsPerSecond = 2;

struct Chain {
  corpus::ChurnProfile churn;
  corpus::PortalSnapshot base;  // generator order: what the churn advances
  corpus::PortalSnapshot snap;  // `base` in the seed's crawl order
  std::string dir;
  std::unique_ptr<core::IncrementalState> state;
  std::unordered_set<uint64_t> prev_hashes;  // previous epoch's tables
  uint64_t digest = 0;                       // last epoch's result digest
  uint64_t csv_bytes = 0;                    // last epoch's readable bytes
};

struct Crawl {
  std::string root;
  std::vector<Chain> chains;
  std::unique_ptr<serve::QueryEngine> engine;
};

struct Totals {
  core::IncrementalStats inc;  // summed over portals and timed epochs
  size_t fetch_attempts = 0;
  size_t fetch_retries = 0;
  FdProbe fd;
  size_t recovered_loaded = 0;
  size_t quarantined = 0;
};

void AddStats(core::IncrementalStats& into, const core::IncrementalStats& s) {
  into.tables_total += s.tables_total;
  into.tables_dirty += s.tables_dirty;
  into.parse_reused += s.parse_reused;
  into.parse_recomputed += s.parse_recomputed;
  into.fd_reused += s.fd_reused;
  into.fd_recomputed += s.fd_recomputed;
  into.signatures_reused += s.signatures_reused;
  into.signatures_recomputed += s.signatures_recomputed;
  into.fingerprints_reused += s.fingerprints_reused;
  into.fingerprints_recomputed += s.fingerprints_recomputed;
  into.pairs_carried += s.pairs_carried;
  into.pairs_recomputed += s.pairs_recomputed;
  into.union_partitions_patched += s.union_partitions_patched;
  into.cache_declines += s.cache_declines;
}

std::unique_ptr<serve::QueryEngine> NewEngine(const Knobs& knobs) {
  return std::make_unique<serve::QueryEngine>(
      ServeOptionsFor(knobs), knobs.engine_workers, EngineOptionsFor(knobs));
}

std::unique_ptr<core::IncrementalState> NewState(const Knobs& knobs,
                                                 const std::string& dir) {
  return std::make_unique<core::IncrementalState>(
      knobs.analysis_cache_budget_bytes, dir, core::StorageFaultProfile{});
}

// One crawl-to-queryable epoch over `states` (one per chain): incremental
// analysis of every portal, then one Refresh over all their tables.
// Returns the wall seconds; `results` receives the analyses, and
// `offsets[p]` the first index of portal p's tables in the published
// corpus (`tables`).
double RunEpoch(std::vector<Chain>& chains,
                std::vector<core::IncrementalState*> states,
                serve::QueryEngine& engine, const Knobs& knobs,
                const core::IngestOptions& ingest, Tracer& tracer,
                int64_t epoch, const char* incremental_span,
                const char* refresh_span,
                std::vector<core::IncrementalResult>& results,
                std::vector<table::Table>& tables,
                std::vector<size_t>& offsets) {
  const core::AnalysisSuiteOptions suite = SuiteOptions(knobs);
  results.clear();
  tables.clear();
  offsets.clear();
  const uint64_t t0 = NowNs();
  for (size_t p = 0; p < chains.size(); ++p) {
    auto span = tracer.Span(incremental_span, epoch);
    results.push_back(
        core::RunIncrementalAnalysis(*states[p], chains[p].snap, suite, ingest));
  }
  for (core::IncrementalResult& r : results) {
    offsets.push_back(tables.size());
    for (table::Table& t : r.bundle.ingest.tables) tables.push_back(std::move(t));
  }
  {
    auto span = tracer.Span(refresh_span, epoch);
    engine.Refresh(tables);
  }
  return SecondsSince(t0);
}

// RunFullAnalysis digest of a chain's current snapshot (the reference).
uint64_t ReferenceDigest(Chain& chain, const Knobs& knobs,
                         const core::IngestOptions& ingest) {
  Lent lent(chain.snap);
  lent.bundle.ingest = core::IngestPortal(lent.bundle.portal, ingest);
  return ResultDigest(core::RunFullAnalysis(lent.bundle, SuiteOptions(knobs)));
}

std::vector<core::IncrementalState*> StatesOf(std::vector<Chain>& chains) {
  std::vector<core::IncrementalState*> states;
  for (Chain& c : chains) states.push_back(c.state.get());
  return states;
}

// Set-up: epoch-0 snapshots, fresh states over empty directories, epoch 0
// and the first Refresh.
Crawl SetUp(const Args& args, const Knobs& knobs, double scale,
            const core::IngestOptions& ingest, const std::string& root) {
  Crawl crawl;
  crawl.root = root;
  crawl.engine = NewEngine(knobs);
  for (corpus::PortalSnapshot& snap : CalibratedPortals(scale)) {
    Chain chain;
    chain.churn = corpus::ChurnForPortal(snap.portal.name);
    chain.dir = root + "/" + snap.portal.name;
    chain.snap = CrawlOrder(snap, args.seed);
    chain.base = std::move(snap);
    chain.state = NewState(knobs, chain.dir);
    crawl.chains.push_back(std::move(chain));
  }
  Tracer off(false);
  std::vector<core::IncrementalResult> results;
  std::vector<table::Table> tables;
  std::vector<size_t> offsets;
  RunEpoch(crawl.chains, StatesOf(crawl.chains), *crawl.engine, knobs, ingest,
           off, 0, "core.incremental", "serve.refresh", results, tables,
           offsets);
  for (size_t p = 0; p < crawl.chains.size(); ++p) {
    Chain& c = crawl.chains[p];
    c.digest = ResultDigest(results[p].analysis);
    c.csv_bytes = results[p].bundle.ingest.stats.total_bytes;
    const size_t end = p + 1 < offsets.size() ? offsets[p + 1] : tables.size();
    for (size_t i = offsets[p]; i < end; ++i) {
      c.prev_hashes.insert(tables[i].content_hash());
    }
  }
  return crawl;
}

}  // namespace

void RunCrawlEpochs(const Args& args, const Knobs& knobs, Report& report) {
  namespace fs = std::filesystem;
  const double scale = args.smoke ? kSmokeScale : kScale;
  // A fixed epoch count per run keeps the store and cache sizes a function
  // of the seed alone; at this scale an epoch takes about half a second.
  const size_t epochs = std::max<size_t>(
      2, static_cast<size_t>(kEpochsPerSecond * args.seconds + 0.5));
  const core::IngestOptions ingest = IngestOptionsFor(TransientFaults(args.seed));
  report.Detail("scale", scale);
  report.Detail("fault_profile", FaultsJson(*ingest.faults));
  report.Detail("epochs", static_cast<double>(epochs));

  // The durable directories are private to this run: removed on every
  // exit path, after `crawl` (declared below) has closed its states.
  struct RemoveOnExit {
    std::string dir;
    ~RemoveOnExit() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } remove_store{knobs.cache_dir};

  std::vector<double> setup_seconds;
  Crawl crawl;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (!crawl.root.empty()) {
      crawl = Crawl{};  // states close before their directory goes
      std::error_code ec;
      fs::remove_all(knobs.cache_dir + "/setup" + std::to_string(rep - 1), ec);
    }
    const uint64_t t0 = NowNs();
    crawl = SetUp(args, knobs, scale, ingest,
                  knobs.cache_dir + "/setup" + std::to_string(rep));
    setup_seconds.push_back(SecondsSince(t0));
  }
  for (Chain& c : crawl.chains) {
    report.Check(c.digest == ReferenceDigest(c, knobs, ingest),
                 "epoch 0 differs from RunFullAnalysis (" + c.snap.portal.name + ")");
  }

  Tracer tracer(args.trace);
  Totals totals;
  std::vector<double> epoch_seconds;
  std::vector<double> epoch_rss_mb;  // peak RSS within each timed epoch
  std::vector<core::IncrementalResult> results;
  std::vector<table::Table> tables;
  std::vector<size_t> offsets;
  for (size_t e = 1; e <= epochs; ++e) {
    const int64_t id = static_cast<int64_t>(e);
    // The benchmark's own work (the next snapshot, bookkeeping and the
    // reference check) stays outside the traced pass: stage coverage and
    // trace overhead are shares of the production epoch only.
    for (Chain& c : crawl.chains) {
      c.base = corpus::AdvanceEpoch(c.base, c.churn, e);
      c.snap = CrawlOrder(c.base, args.seed);
    }
    {
      auto root = tracer.Span("pass", id);
      if (args.trace) {
        for (Chain& c : crawl.chains) {
          const FetchProbe f = ProbeFetch(c.snap.portal, ingest, tracer, id);
          totals.fetch_attempts += f.attempts;
          totals.fetch_retries += f.retries;
        }
      }
      if (!args.trace) ResetPeakRss();  // RSS is an untraced metric
      epoch_seconds.push_back(RunEpoch(crawl.chains, StatesOf(crawl.chains),
                                       *crawl.engine, knobs, ingest, tracer, id,
                                       "core.incremental", "serve.refresh",
                                       results, tables, offsets));
      epoch_rss_mb.push_back(PeakRssMb());
      if (args.trace) {
        // FD work the epoch could not replay from the cache: the FD-sample
        // tables whose content is new in their portal this epoch.
        std::vector<size_t> dirty_sample;
        for (size_t i : core::SelectFdSample(tables)) {
          const size_t p = static_cast<size_t>(
              std::upper_bound(offsets.begin(), offsets.end(), i) -
              offsets.begin() - 1);
          if (crawl.chains[p].prev_hashes.count(tables[i].content_hash()) == 0) {
            dirty_sample.push_back(i);
          }
        }
        Accumulate(totals.fd, ProbeFd(tables, dirty_sample,
                                      knobs.fd_memory_budget_bytes, tracer, id));
      }
    }
    for (size_t p = 0; p < crawl.chains.size(); ++p) {
      Chain& c = crawl.chains[p];
      AddStats(totals.inc, results[p].stats);
      c.digest = ResultDigest(results[p].analysis);
      c.csv_bytes = results[p].bundle.ingest.stats.total_bytes;
      const size_t end = p + 1 < offsets.size() ? offsets[p + 1] : tables.size();
      c.prev_hashes.clear();
      for (size_t i = offsets[p]; i < end; ++i) {
        c.prev_hashes.insert(tables[i].content_hash());
      }
    }
    for (Chain& c : crawl.chains) {
      report.Check(c.digest == ReferenceDigest(c, knobs, ingest),
                   "epoch " + std::to_string(e) +
                       " differs from RunFullAnalysis (" + c.snap.portal.name + ")");
    }
  }

  size_t publishes = 0, publish_failures = 0, declines = 0;
  uint64_t working_set = 0;
  for (Chain& c : crawl.chains) {
    const core::DurableStoreStats d = c.state->cache.durable_stats();
    publishes += d.publishes;
    publish_failures += d.publish_failures;
    declines += c.state->cache.stats().total_declines();
    working_set += c.state->cache.governor().bytes_in_use();
  }
  const auto [store_bytes, store_files] = DirectoryBytes(crawl.root);
  uint64_t csv_bytes = 0;
  for (const Chain& c : crawl.chains) csv_bytes += c.csv_bytes;
  const size_t column_sets = crawl.engine->snapshot()->column_sets.size();
  if (declines > 0) {
    report.Invalid("the analysis-cache budget did not hold the working set (" +
                   std::to_string(declines) + " declines)");
  }

  // Restart: a fresh state per portal over the populated directory re-runs
  // the last epoch, through to Refresh on a fresh engine.
  std::vector<double> restart_seconds;
  const int restarts = args.trace ? 1 : kRestartRepeats;
  for (int rep = 0; rep < restarts; ++rep) {
    // Declared before the pass span, so their teardown falls outside it.
    std::vector<std::unique_ptr<core::IncrementalState>> fresh;
    std::unique_ptr<serve::QueryEngine> engine;
    {
      auto root = tracer.Span("pass");
      const uint64_t t0 = NowNs();
      for (Chain& c : crawl.chains) {
        auto span = tracer.Span("core.recovery_scan", -1);
        fresh.push_back(NewState(knobs, c.dir));
      }
      std::vector<core::IncrementalState*> states;
      for (auto& s : fresh) states.push_back(s.get());
      {
        auto span = tracer.Span("serve.engine_start", -1);
        engine = NewEngine(knobs);
      }
      RunEpoch(crawl.chains, states, *engine, knobs, ingest, tracer,
               static_cast<int64_t>(epochs), "core.restart_epoch",
               "serve.restart_refresh", results, tables, offsets);
      restart_seconds.push_back(SecondsSince(t0));
    }
    for (size_t p = 0; p < crawl.chains.size(); ++p) {
      report.Check(ResultDigest(results[p].analysis) == crawl.chains[p].digest,
                   "restart differs from the last epoch (" +
                       crawl.chains[p].snap.portal.name + ")");
      const core::DurableStoreStats d = fresh[p]->cache.durable_stats();
      totals.recovered_loaded += d.loaded;
      totals.quarantined += d.quarantined;
    }
  }

  const double epoch_p50_s = Median(epoch_seconds);
  double busy = 0;
  for (double s : epoch_seconds) busy += s;
  const double store_ratio =
      csv_bytes > 0 ? static_cast<double>(store_bytes) / static_cast<double>(csv_bytes)
                    : 0;
  report.Detail("epoch_p50_s", epoch_p50_s);
  report.Detail("epoch_seconds", JsonArray(epoch_seconds));
  report.Detail("restart_s", Median(restart_seconds));
  report.Detail("store_bytes_per_csv_byte", store_ratio);
  report.Detail("store_bytes", static_cast<double>(store_bytes));
  report.Detail("live_csv_bytes", static_cast<double>(csv_bytes));
  report.Detail("analysis_cache_budget_bytes_per_portal",
                static_cast<double>(knobs.analysis_cache_budget_bytes));
  report.Detail("analysis_cache_working_set_bytes", static_cast<double>(working_set));
  report.Detail("analysis_cache_declines", static_cast<double>(declines));

  if (!args.trace) {
    report.Add("setup_s", Median(setup_seconds), "s");
    report.Add("peak_rss_mb", Median(epoch_rss_mb), "MB");
    report.Add("op_ms", epoch_p50_s * 1e3, "ms");
    report.Add("throughput_per_s", static_cast<double>(epochs) / busy, "1/s");
    return;
  }

  const auto ratio = [](size_t hits, size_t misses) {
    return hits + misses > 0 ? static_cast<double>(hits) /
                                   static_cast<double>(hits + misses)
                             : 0.0;
  };
  const core::IncrementalStats& s = totals.inc;
  AddSpanMetrics(tracer, report);
  AddFdMetrics(totals.fd, report);
  report.Add("fetch.attempts", static_cast<double>(totals.fetch_attempts), "count");
  report.Add("fetch.retries", static_cast<double>(totals.fetch_retries), "count");
  report.Add("core.tables_dirty_ratio", ratio(s.tables_dirty, s.tables_total - s.tables_dirty), "ratio");
  report.Add("core.tables_total", static_cast<double>(s.tables_total), "count");
  report.Add("core.parse_hit_ratio", ratio(s.parse_reused, s.parse_recomputed), "ratio");
  report.Add("core.parse_lookups", static_cast<double>(s.parse_reused + s.parse_recomputed), "count");
  report.Add("core.fd_hit_ratio", ratio(s.fd_reused, s.fd_recomputed), "ratio");
  report.Add("core.fd_lookups", static_cast<double>(s.fd_reused + s.fd_recomputed), "count");
  report.Add("core.signature_hit_ratio", ratio(s.signatures_reused, s.signatures_recomputed), "ratio");
  report.Add("core.signature_lookups", static_cast<double>(s.signatures_reused + s.signatures_recomputed), "count");
  report.Add("core.fingerprint_hit_ratio", ratio(s.fingerprints_reused, s.fingerprints_recomputed), "ratio");
  report.Add("core.fingerprint_lookups", static_cast<double>(s.fingerprints_reused + s.fingerprints_recomputed), "count");
  report.Add("core.cache_declines", static_cast<double>(s.cache_declines), "count");
  report.Add("core.pairs_carried_ratio", ratio(s.pairs_carried, s.pairs_recomputed), "ratio");
  report.Add("core.pairs_total", static_cast<double>(s.pairs_carried + s.pairs_recomputed), "count");
  report.Add("core.union_partitions_patched", static_cast<double>(s.union_partitions_patched), "count");
  report.Add("core.durable_publishes", static_cast<double>(publishes), "count");
  report.Add("core.durable_publish_failures", static_cast<double>(publish_failures), "count");
  report.Add("core.durable_mb_written", static_cast<double>(store_bytes) / 1e6, "MB");
  report.Add("core.durable_files", static_cast<double>(store_files), "count");
  report.Add("core.recovered_loaded", static_cast<double>(totals.recovered_loaded), "count");
  report.Add("core.quarantined", static_cast<double>(totals.quarantined), "count");
  report.Add("serve.column_sets", static_cast<double>(column_sets), "count");
  AddTraceMetrics(tracer, report);
  report.Detail("trace_file", JsonString(args.trace_file));
  tracer.WriteChromeTrace(args.trace_file);
}

}  // namespace perfbench
