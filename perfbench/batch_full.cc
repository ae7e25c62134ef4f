// batch_full: from-scratch analysis of all four portals, the paper's own
// use — recompute every table and figure from a fresh crawl. Each pass
// runs IngestPortal and then every stage of RunFullAnalysis per portal at
// the pinned thread count, and renders the report. Every pass is checked
// against a serial (1-thread) reference pass on result fields only.

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "compress/codec.h"
#include "core/analysis.h"
#include "core/analysis_suite.h"
#include "join/joinable_pair_finder.h"
#include "perfbench/common.h"
#include "perfbench/probes.h"
#include "perfbench/trace.h"
#include "util/parallel.h"

namespace perfbench {

namespace {

constexpr double kScale = 0.07;
constexpr double kSmokeScale = 0.02;
constexpr int kSetupRepeats = 3;
constexpr size_t kMinPasses = 3;

using Corpus = std::vector<corpus::PortalSnapshot>;

struct Pass {
  std::vector<uint64_t> digests;  // one per portal
  size_t rendered_bytes = 0;
  uint64_t csv_bytes = 0;
};

// The production path: fetch -> ingest -> full analysis -> rendered report.
Pass RunPass(Corpus& corpus, const Knobs& knobs,
             const core::IngestOptions& ingest) {
  const core::AnalysisSuiteOptions suite = SuiteOptions(knobs);
  Pass pass;
  for (corpus::PortalSnapshot& portal : corpus) {
    Lent lent(portal);
    lent.bundle.ingest = core::IngestPortal(lent.bundle.portal, ingest);
    const core::PortalAnalysis analysis =
        core::RunFullAnalysis(lent.bundle, suite);
    pass.rendered_bytes += core::RenderPortalAnalysis(analysis).size();
    pass.digests.push_back(ResultDigest(analysis));
    pass.csv_bytes += lent.bundle.ingest.stats.total_bytes;
  }
  return pass;
}

void AddStage(core::PortalAnalysis& a, const char* name) {
  a.stages.push_back(core::StageStatus{name, Status::OK(), false});
}

struct TracedTotals {
  size_t fetch_attempts = 0;
  size_t fetch_retries = 0;
  uint64_t csv_bytes_parsed = 0;
  uint64_t compress_in = 0;
  uint64_t compress_out = 0;
  size_t join_pairs = 0;
  FdProbe fd;
};

// The same pass with every RunFullAnalysis stage called through its own
// public function under a span, plus the fetch/csv/FD probes. Produces
// the same PortalAnalysis (checked by digest) as RunFullAnalysis.
Pass RunTracedPass(Corpus& corpus, const Knobs& knobs,
                   const core::IngestOptions& ingest, Tracer& tracer,
                   TracedTotals& totals, Report& report) {
  const core::AnalysisSuiteOptions suite = SuiteOptions(knobs);
  const auto codec = compress::MakeLz77Codec();
  Pass pass;
  auto root = tracer.Span("pass");
  for (size_t p = 0; p < corpus.size(); ++p) {
    const int64_t id = static_cast<int64_t>(p);
    Lent lent(corpus[p]);
    core::PortalBundle& b = lent.bundle;

    const FetchProbe fetched = ProbeFetch(b.portal, ingest, tracer, id);
    totals.fetch_attempts += fetched.attempts;
    totals.fetch_retries += fetched.retries;
    const CsvProbe parsed = ProbeCsv(b.portal, fetched.bodies, ingest, tracer, id);
    totals.csv_bytes_parsed += parsed.bytes_parsed;
    {
      auto span = tracer.Span("core.ingest", id);
      b.ingest = core::IngestPortal(b.portal, ingest);
    }
    std::vector<uint64_t> ingested;
    for (const table::Table& t : b.ingest.tables) {
      ingested.push_back(t.content_hash());
    }
    report.Check(ingested == parsed.table_hashes,
                 "csv probe tables differ from IngestPortal (" + b.name + ")");
    report.Check(fetched.attempts == b.ingest.stats.fetch_attempts,
                 "fetch probe attempts differ from IngestPortal (" + b.name + ")");

    const std::vector<table::Table>& tables = b.ingest.tables;
    core::PortalAnalysis a;
    a.portal_name = b.name;
    a.ingest = b.ingest.stats;
    for (const core::ResourceRecord& r : b.ingest.resources) {
      if (!r.status.ok()) a.failed_resources.push_back(r);
    }
    {
      auto span = tracer.Span("profile", id);
      a.size = core::ComputeSizeReport(b, /*compress=*/false);
      {
        auto lz = tracer.Span("compress", id);
        for (const core::Dataset& ds : b.portal.datasets) {
          for (const core::Resource& res : ds.resources) {
            if (!res.downloadable || res.content.empty()) continue;
            const size_t out = codec->Compress(res.content).size();
            a.size.compressed_bytes += out;
            totals.compress_in += res.content.size();
            totals.compress_out += out;
          }
        }
      }
      AddStage(a, "size");
      a.metadata = core::ComputeMetadataReport(b.portal);
      AddStage(a, "metadata");
      a.table_sizes = profile::ComputeTableSizeStats(tables);
      a.nulls = profile::ComputeNullStats(tables);
      a.uniqueness = profile::ComputeUniquenessStats(tables);
      AddStage(a, "profile");
    }
    const std::vector<size_t> sample = core::SelectFdSample(tables);
    {
      auto span = tracer.Span("fd.keys", id);
      a.keys = core::ComputeKeyReport(tables, sample);
      AddStage(a, "keys");
    }
    {
      auto span = tracer.Span("fd.report", id);
      a.fds = core::ComputeFdReport(tables, sample, /*seed=*/7,
                                    knobs.fd_memory_budget_bytes);
      AddStage(a, "fds");
    }
    Accumulate(totals.fd,
               ProbeFd(tables, sample, knobs.fd_memory_budget_bytes, tracer, id));
    {
      std::optional<join::JoinablePairFinder> finder;
      std::vector<join::JoinablePair> pairs;
      {
        auto span = tracer.Span("join.finder_build", id);
        finder.emplace(tables);
      }
      {
        auto span = tracer.Span("join.find_pairs", id);
        pairs = finder->FindAllPairs();
      }
      totals.join_pairs += pairs.size();
      {
        auto span = tracer.Span("join.report", id);
        a.joins = core::ComputeJoinReport(tables, *finder, pairs);
      }
      {
        auto span = tracer.Span("join.label", id);
        a.labeled_joins =
            core::LabelJoinSample(b, *finder, pairs, suite.sampler);
      }
      AddStage(a, "joins");
    }
    {
      auto span = tracer.Span("union.report", id);
      a.unions = core::ComputeUnionReport(b, suite.union_sample_pairs);
      AddStage(a, "unions");
    }
    {
      auto span = tracer.Span("render", id);
      pass.rendered_bytes += core::RenderPortalAnalysis(a).size();
    }
    pass.digests.push_back(ResultDigest(a));
    pass.csv_bytes += b.ingest.stats.total_bytes;
  }
  return pass;
}

void CheckPass(const Pass& pass, const Pass& reference, const Corpus& corpus,
               const char* what, Report& report) {
  for (size_t p = 0; p < reference.digests.size(); ++p) {
    report.Check(p < pass.digests.size() &&
                     pass.digests[p] == reference.digests[p],
                 std::string(what) + " pass differs from the serial reference (" +
                     corpus[p].portal.name + ")");
  }
}

}  // namespace

void RunBatchFull(const Args& args, const Knobs& knobs, Report& report) {
  const double scale = args.smoke ? kSmokeScale : kScale;
  report.Detail("scale", scale);

  std::vector<double> setup_seconds;
  Corpus corpus;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const uint64_t t0 = NowNs();
    corpus.clear();
    for (corpus::PortalSnapshot& snap : CalibratedPortals(scale)) {
      corpus.push_back(CrawlOrder(std::move(snap), args.seed));
    }
    setup_seconds.push_back(SecondsSince(t0));
  }

  const core::IngestOptions ingest =
      IngestOptionsFor(TransientFaults(args.seed));
  report.Detail("fault_profile", FaultsJson(*ingest.faults));
  std::vector<Pass> passes;
  std::vector<double> pass_seconds;
  std::vector<double> pass_rss_mb;  // peak RSS within each timed pass
  Tracer tracer(args.trace);
  TracedTotals totals;
  if (args.trace) {
    const uint64_t t0 = NowNs();
    passes.push_back(RunTracedPass(corpus, knobs, ingest, tracer, totals, report));
    pass_seconds.push_back(SecondsSince(t0));
  } else {
    const uint64_t window = NowNs();
    while (passes.size() < kMinPasses || SecondsSince(window) < args.seconds) {
      ResetPeakRss();
      const uint64_t t0 = NowNs();
      passes.push_back(RunPass(corpus, knobs, ingest));
      pass_seconds.push_back(SecondsSince(t0));
      pass_rss_mb.push_back(PeakRssMb());
    }
  }

  // Off the clock: the serial reference every pass must match.
  util::SetGlobalThreadCount(1);
  const Pass reference = RunPass(corpus, knobs, ingest);
  util::SetGlobalThreadCount(knobs.threads);
  for (const Pass& pass : passes) {
    CheckPass(pass, reference, corpus, args.trace ? "traced" : "timed", report);
  }

  const double analysis_s = Median(pass_seconds);
  double busy = 0;
  for (double s : pass_seconds) busy += s;
  report.Detail("analysis_s", analysis_s);
  report.Detail("pass_seconds", JsonArray(pass_seconds));
  report.Detail("passes", static_cast<double>(passes.size()));
  report.Detail("readable_csv_mb",
                static_cast<double>(reference.csv_bytes) / 1e6);
  report.Detail("rendered_bytes_per_pass",
                static_cast<double>(reference.rendered_bytes));

  if (!args.trace) {
    report.Add("setup_s", Median(setup_seconds), "s");
    report.Add("peak_rss_mb", Median(pass_rss_mb), "MB");
    report.Add("op_ms", analysis_s * 1e3, "ms");
    report.Add("throughput_per_s", static_cast<double>(passes.size()) / busy,
               "1/s");
    return;
  }
  AddSpanMetrics(tracer, report);
  AddFdMetrics(totals.fd, report);
  report.Add("fetch.attempts", static_cast<double>(totals.fetch_attempts),
             "count");
  report.Add("fetch.retries", static_cast<double>(totals.fetch_retries),
             "count");
  const double parse_s = tracer.TotalSeconds("csv.parse");
  report.Add("csv.parse_mb_per_s",
             parse_s > 0 ? static_cast<double>(totals.csv_bytes_parsed) / 1e6 /
                               parse_s
                         : 0,
             "MB/s");
  report.Add("compress.ratio",
             totals.compress_in > 0
                 ? static_cast<double>(totals.compress_out) /
                       static_cast<double>(totals.compress_in)
                 : 0,
             "ratio");
  report.Add("join.pairs", static_cast<double>(totals.join_pairs), "count");
  AddTraceMetrics(tracer, report);
  report.Detail("trace_file", JsonString(args.trace_file));
  tracer.WriteChromeTrace(args.trace_file);
}

}  // namespace perfbench
