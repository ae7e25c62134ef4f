#include "perfbench/probes.h"

#include <algorithm>
#include <utility>

#include "csv/cleaning.h"
#include "csv/csv_reader.h"
#include "csv/file_type_detector.h"
#include "csv/header_inference.h"
#include "fd/memory_governor.h"
#include "fetch/retry.h"
#include "fetch/transport.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace perfbench {

FetchProbe ProbeFetch(const core::Portal& portal,
                      const core::IngestOptions& options, Tracer& tracer,
                      int64_t id) {
  auto span = tracer.Span("fetch", id);
  const fetch::FaultProfile profile = options.faults.value_or(fetch::FaultProfile{});
  fetch::FaultyTransport transport(portal, fetch::FaultSchedule(profile));
  fetch::CircuitBreaker breaker(options.retry);
  uint64_t clock_ms = 0;
  Rng backoff_rng = Rng(profile.seed).Fork("ingest_backoff").Fork(portal.name);

  FetchProbe probe;
  for (size_t d = 0; d < portal.datasets.size(); ++d) {
    const core::Dataset& dataset = portal.datasets[d];
    for (size_t r = 0; r < dataset.resources.size(); ++r) {
      const core::Resource& res = dataset.resources[r];
      if (ToLower(res.claimed_format) != "csv") continue;
      fetch::FetchRequest request;
      request.portal = portal.name;
      request.dataset_id = dataset.id;
      request.resource_name = res.name;
      request.dataset_index = d;
      request.resource_index = r;
      fetch::FetchOutcome fetched = fetch::FetchWithRetry(
          transport, request, options.retry, &breaker, &clock_ms, backoff_rng);
      probe.attempts += fetched.attempts;
      probe.retries += fetched.retries;
      if (fetched.status.ok()) {
        probe.bodies.push_back(FetchedBody{d, r, std::move(fetched.body)});
      }
    }
  }
  return probe;
}

CsvProbe ProbeCsv(const core::Portal& portal,
                  const std::vector<FetchedBody>& bodies,
                  const core::IngestOptions& options, Tracer& tracer,
                  int64_t id) {
  auto span = tracer.Span("csv", id);
  CsvProbe probe;
  for (const FetchedBody& fb : bodies) {
    {
      auto sniff = tracer.Span("csv.sniff", id);
      if (!csv::FileTypeDetector::LooksLikeCsv(fb.body)) continue;
    }
    Result<csv::RawRecords> parsed = csv::RawRecords{};
    {
      auto parse = tracer.Span("csv.parse", id);
      parsed = csv::CsvReader::ParseString(fb.body, csv::CsvReaderOptions{});
    }
    probe.bytes_parsed += fb.body.size();
    if (!parsed.ok() || parsed->empty()) continue;
    csv::HeaderInferenceResult inferred;
    {
      auto header = tracer.Span("csv.header", id);
      csv::HeaderInferenceOptions header_options;
      header_options.scan_rows = options.header_scan_rows;
      inferred = csv::InferHeader(*parsed, header_options);
      if (inferred.num_columns > 0) csv::RemoveTrailingEmptyColumns(inferred);
    }
    if (inferred.num_columns == 0 ||
        csv::IsTooWide(inferred, options.max_columns)) {
      continue;
    }
    auto encode = tracer.Span("table.encode", id);
    const std::string& name =
        portal.datasets[fb.dataset].resources[fb.resource].name;
    auto table = table::Table::FromRecords(name, inferred.header, inferred.rows);
    if (table.ok()) probe.table_hashes.push_back(table->content_hash());
  }
  return probe;
}

FdProbe ProbeFd(const std::vector<table::Table>& tables,
                const std::vector<size_t>& indices, size_t budget_bytes,
                Tracer& tracer, int64_t id) {
  auto span = tracer.Span("fd.mine", id);
  fd::MemoryGovernor governor(budget_bytes);
  std::vector<fd::FdMineResult> results(indices.size());
  util::ParallelFor(
      0, indices.size(),
      [&](size_t k) {
        fd::FdMinerOptions miner;
        miner.memory_governor = &governor;
        auto mined = fd::MineFun(tables[indices[k]], miner);
        if (mined.ok()) results[k] = std::move(mined).value();
      },
      /*grain=*/1);
  FdProbe probe;
  for (const fd::FdMineResult& r : results) {
    probe.phases.build_seconds += r.stats.build_seconds;
    probe.phases.product_seconds += r.stats.product_seconds;
    probe.phases.prune_seconds += r.stats.prune_seconds;
    probe.phases.products += r.stats.products;
    probe.phases.partition_rebuilds += r.stats.partition_rebuilds;
    probe.phases.partition_declines += r.stats.partition_declines;
    probe.nodes_explored += r.nodes_explored;
  }
  probe.governor_peak_bytes = governor.peak_bytes();
  probe.tables = indices.size();
  return probe;
}

void Accumulate(FdProbe& into, const FdProbe& from) {
  into.phases.build_seconds += from.phases.build_seconds;
  into.phases.product_seconds += from.phases.product_seconds;
  into.phases.prune_seconds += from.phases.prune_seconds;
  into.phases.products += from.phases.products;
  into.phases.partition_rebuilds += from.phases.partition_rebuilds;
  into.phases.partition_declines += from.phases.partition_declines;
  into.nodes_explored += from.nodes_explored;
  into.governor_peak_bytes =
      std::max(into.governor_peak_bytes, from.governor_peak_bytes);
  into.tables += from.tables;
}

void AddSpanMetrics(const Tracer& tracer, Report& report) {
  // (metric, span, self time?) — self time where a span has child spans.
  struct Row {
    const char* metric;
    const char* span;
    bool self;
  };
  static const Row kRows[] = {
      {"fetch.self_s", "fetch", true},
      {"csv.sniff_s", "csv.sniff", false},
      {"csv.parse_s", "csv.parse", false},
      {"csv.header_s", "csv.header", false},
      {"table.encode_s", "table.encode", false},
      {"core.ingest_s", "core.ingest", false},
      {"profile.self_s", "profile", true},
      {"compress.self_s", "compress", true},
      {"fd.keys_s", "fd.keys", false},
      {"fd.report_s", "fd.report", false},
      {"join.finder_build_s", "join.finder_build", false},
      {"join.find_pairs_s", "join.find_pairs", false},
      {"join.report_s", "join.report", false},
      {"join.label_s", "join.label", false},
      {"union.report_s", "union.report", false},
      {"core.incremental_s", "core.incremental", false},
      {"core.recovery_scan_s", "core.recovery_scan", false},
      {"serve.refresh_s", "serve.refresh", false},
  };
  for (const Row& row : kRows) {
    report.Add(row.metric,
               row.self ? tracer.SelfSeconds(row.span)
                        : tracer.TotalSeconds(row.span),
               "s");
  }
}

void AddFdMetrics(const FdProbe& probe, Report& report) {
  report.Add("fd.build_s", probe.phases.build_seconds, "s");
  report.Add("fd.product_s", probe.phases.product_seconds, "s");
  report.Add("fd.prune_s", probe.phases.prune_seconds, "s");
  report.Add("fd.products", static_cast<double>(probe.phases.products),
             "count");
  report.Add("fd.nodes_explored", static_cast<double>(probe.nodes_explored),
             "count");
  report.Add("fd.partition_rebuilds",
             static_cast<double>(probe.phases.partition_rebuilds), "count");
  report.Add("fd.partition_declines",
             static_cast<double>(probe.phases.partition_declines), "count");
  report.Add("fd.governor_peak_mb",
             static_cast<double>(probe.governor_peak_bytes) / (1 << 20), "MB");
}

void AddTraceMetrics(const Tracer& tracer, Report& report) {
  const double pass_seconds = tracer.TotalSeconds("pass");
  const double overhead =
      pass_seconds > 0
          ? static_cast<double>(tracer.size()) * SpanCostSeconds() / pass_seconds
          : 0;
  const double coverage = tracer.Coverage("pass");
  report.Add("trace.overhead_ratio", overhead, "ratio");
  report.Add("trace.stage_coverage", coverage, "ratio");
  report.Detail("trace_spans", static_cast<double>(tracer.size()));
  report.Detail("traced_pass_s", pass_seconds);
  if (coverage < 0.95) {
    report.Invalid("stage spans cover " + std::to_string(coverage) +
                   " of the traced pass (< 0.95)");
  }
}

}  // namespace perfbench
