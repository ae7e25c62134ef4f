#ifndef OGDP_PERFBENCH_PROBES_H_
#define OGDP_PERFBENCH_PROBES_H_

// Layer probes for the traced run. Each replays one layer of the
// production path through that layer's public functions, under spans, so
// its time and counters can be attributed: the fetch loop IngestPortal
// runs, the sniff/parse/header/encode steps it applies to every fetched
// body, and FUN mining over an FD sample with the pipeline's governor.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/ingestion.h"
#include "core/portal_model.h"
#include "fd/fd_miner.h"
#include "perfbench/common.h"
#include "perfbench/trace.h"
#include "table/table.h"

namespace perfbench {

struct FetchedBody {
  size_t dataset = 0;
  size_t resource = 0;
  std::string body;
};

struct FetchProbe {
  std::vector<FetchedBody> bodies;
  size_t attempts = 0;
  size_t retries = 0;
};

/// IngestPortal's fetch stage: the same transport, fault schedule, retry
/// policy, circuit breaker and backoff stream, under a "fetch" span.
FetchProbe ProbeFetch(const core::Portal& portal,
                      const core::IngestOptions& options, Tracer& tracer,
                      int64_t id);

struct CsvProbe {
  uint64_t bytes_parsed = 0;
  /// Content hashes of the readable tables, in ingest order.
  std::vector<uint64_t> table_hashes;
};

/// IngestPortal's per-body stages, serially, each under its own span:
/// csv.sniff (LooksLikeCsv), csv.parse (CsvReader::ParseString),
/// csv.header (InferHeader + cleaning), table.encode (Table::FromRecords).
CsvProbe ProbeCsv(const core::Portal& portal,
                  const std::vector<FetchedBody>& bodies,
                  const core::IngestOptions& options, Tracer& tracer,
                  int64_t id);

struct FdProbe {
  fd::FdPhaseStats phases;  // seconds and counts summed over the tables
  size_t nodes_explored = 0;
  size_t governor_peak_bytes = 0;
  size_t tables = 0;
};

/// MineFun over `tables[i]` for i in `indices`, in parallel on the global
/// pool with one shared governor of `budget_bytes`, under an "fd.mine"
/// span. Phase seconds are summed over tables (CPU seconds, not wall).
FdProbe ProbeFd(const std::vector<table::Table>& tables,
                const std::vector<size_t>& indices, size_t budget_bytes,
                Tracer& tracer, int64_t id);

/// Adds one FdProbe into another.
void Accumulate(FdProbe& into, const FdProbe& from);

/// Per-layer metrics that read straight off the span totals (zero when
/// the workload never opened such a span).
void AddSpanMetrics(const Tracer& tracer, Report& report);
/// fd.* counters of an accumulated FD probe.
void AddFdMetrics(const FdProbe& probe, Report& report);
/// trace.overhead_ratio and trace.stage_coverage over the "pass" spans;
/// marks the run invalid when stage spans cover less than 95%.
void AddTraceMetrics(const Tracer& tracer, Report& report);

}  // namespace perfbench

#endif  // OGDP_PERFBENCH_PROBES_H_
