// The repository benchmark binary. Usage:
//
//   ogdp_perfbench --workload <batch_full|crawl_epochs|query_mix>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  --work-dir <dir> [--trace-file <path>] [--smoke]
//
// Prints one details line (resolved knobs, build, hardware, the named
// metrics of the workload) and then, as the last line of stdout, the
// result object {"correct", "attempted", "failed", "metrics"}. Untraced
// runs report the end-to-end metrics; traced runs the per-layer ones.
// Normally launched through run.py, which builds this binary and gives
// each run its own scratch directory.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "perfbench/common.h"
#include "util/parallel.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Reported by every workload on untraced runs; each workload documents
// what its "operation" is (README.md).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"op_ms", "ms"},
    {"throughput_per_s", "1/s"},
};

// Reported by every traced run; a layer the workload never enters reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"fetch.self_s", "s"},
    {"fetch.attempts", "count"},
    {"fetch.retries", "count"},
    {"csv.sniff_s", "s"},
    {"csv.parse_s", "s"},
    {"csv.parse_mb_per_s", "MB/s"},
    {"csv.header_s", "s"},
    {"table.encode_s", "s"},
    {"core.ingest_s", "s"},
    {"profile.self_s", "s"},
    {"compress.self_s", "s"},
    {"compress.ratio", "ratio"},
    {"fd.keys_s", "s"},
    {"fd.report_s", "s"},
    {"fd.build_s", "s"},
    {"fd.product_s", "s"},
    {"fd.prune_s", "s"},
    {"fd.products", "count"},
    {"fd.nodes_explored", "count"},
    {"fd.partition_rebuilds", "count"},
    {"fd.partition_declines", "count"},
    {"fd.governor_peak_mb", "MB"},
    {"join.finder_build_s", "s"},
    {"join.find_pairs_s", "s"},
    {"join.pairs", "count"},
    {"join.report_s", "s"},
    {"join.label_s", "s"},
    {"union.report_s", "s"},
    {"core.incremental_s", "s"},
    {"core.tables_dirty_ratio", "ratio"},
    {"core.tables_total", "count"},
    {"core.parse_hit_ratio", "ratio"},
    {"core.parse_lookups", "count"},
    {"core.fd_hit_ratio", "ratio"},
    {"core.fd_lookups", "count"},
    {"core.signature_hit_ratio", "ratio"},
    {"core.signature_lookups", "count"},
    {"core.fingerprint_hit_ratio", "ratio"},
    {"core.fingerprint_lookups", "count"},
    {"core.cache_declines", "count"},
    {"core.pairs_carried_ratio", "ratio"},
    {"core.pairs_total", "count"},
    {"core.union_partitions_patched", "count"},
    {"core.durable_publishes", "count"},
    {"core.durable_publish_failures", "count"},
    {"core.durable_mb_written", "MB"},
    {"core.durable_files", "count"},
    {"core.recovery_scan_s", "s"},
    {"core.recovered_loaded", "count"},
    {"core.quarantined", "count"},
    {"serve.refresh_s", "s"},
    {"serve.column_sets", "count"},
    {"serve.join_compute_us", "us"},
    {"serve.union_compute_us", "us"},
    {"serve.keyword_compute_us", "us"},
    {"serve.join_candidates", "count"},
    {"serve.join_yield", "ratio"},
    {"serve.keyword_candidates", "count"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.cache_lookups", "count"},
    {"serve.cache_evictions", "count"},
    {"serve.cache_invalidated", "count"},
    {"serve.dispatch_us", "us"},
    {"serve.queued_max", "count"},
    {"serve.shed", "count"},
    {"loadgen.lag_p99_us", "us"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.stage_coverage", "ratio"},
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "ogdp_perfbench: %s\nusage: ogdp_perfbench --workload "
               "<batch_full|crawl_epochs|query_mix> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir> [--trace-file <path>] "
               "[--smoke]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      args.smoke = true;
    } else if (key.rfind("--", 0) == 0 && i + 1 < argc) {
      kv[key] = argv[++i];
    } else {
      Usage("unexpected argument '" + key + "'");
    }
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace",
                               "--work-dir"}) {
    if (kv.count(required) == 0) Usage(std::string("missing ") + required);
  }
  args.workload = kv["--workload"];
  args.seed = std::strtoull(kv["--seed"].c_str(), nullptr, 10);
  args.seconds = std::atof(kv["--seconds"].c_str());
  args.trace = kv["--trace"] == "1";
  args.work_dir = kv["--work-dir"];
  args.trace_file = kv.count("--trace-file") != 0
                        ? kv["--trace-file"]
                        : args.work_dir + "/trace.json";
  if (args.seconds <= 0) Usage("--seconds must be positive");
  return args;
}

// Timing numbers from unoptimized or instrumented code are not reported.
const char* BuildRefusal() {
#ifndef NDEBUG
  return "assertions are enabled (Debug build)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
  const std::string type = OGDP_PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type is neither Release nor RelWithDebInfo";
  }
  return nullptr;
}

std::string KnobsJson(const Knobs& k) {
  std::string out = "{";
  out += "\"threads\":" + std::to_string(k.threads);
  out += ",\"fd_memory_budget_bytes\":" + std::to_string(k.fd_memory_budget_bytes);
  out += ",\"analysis_cache_budget_bytes\":" +
         std::to_string(k.analysis_cache_budget_bytes);
  out += ",\"result_cache_budget_bytes\":" +
         std::to_string(k.result_cache_budget_bytes);
  out += ",\"shards\":" + std::to_string(k.shards);
  out += ",\"engine_workers\":" + std::to_string(k.engine_workers);
  out += ",\"client_queue_capacity\":" + std::to_string(k.client_queue_capacity);
  out += ",\"time_budget_ms\":" + JsonNumber(UnlimitedBudget().time_budget_ms);
  out += ",\"cache_dir\":" + JsonString(k.cache_dir.empty() ? "(off)" : k.cache_dir);
  return out + "}";
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (const char* refusal = BuildRefusal()) {
    std::fprintf(stderr, "ogdp_perfbench: refusing to report: %s\n", refusal);
    return 3;
  }

  Knobs knobs;
  util::SetGlobalThreadCount(knobs.threads);  // never OGDP_THREADS

  Report report;
  if (args.workload == "batch_full") {
    RunBatchFull(args, knobs, report);
  } else if (args.workload == "crawl_epochs") {
    knobs.cache_dir = args.work_dir + "/store";
    RunCrawlEpochs(args, knobs, report);
  } else if (args.workload == "query_mix") {
    RunQueryMix(args, knobs, report);
  } else {
    Usage("unknown workload '" + args.workload + "'");
  }

  // Exactly the declared metric set, in declaration order.
  std::map<std::string, Metric> measured;
  for (const Metric& m : report.metrics) measured[m.name] = m;
  std::set<std::string> declared;
  std::string metrics = "{";
  bool first = true;
  const auto emit = [&](const MetricSpec& spec, double value) {
    metrics += std::string(first ? "" : ", ") + JsonString(spec.name) +
               ": {\"value\": " + JsonNumber(value) +
               ", \"unit\": " + JsonString(spec.unit) + "}";
    first = false;
  };
  if (args.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      declared.insert(spec.name);
      const auto it = measured.find(spec.name);
      emit(spec, it == measured.end() ? 0.0 : it->second.value);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      declared.insert(spec.name);
      const auto it = measured.find(spec.name);
      if (it == measured.end() || !(it->second.value > 0)) {
        report.Invalid(std::string("end-to-end metric ") + spec.name +
                       " missing or not positive");
        emit(spec, it == measured.end() ? 0.0 : it->second.value);
      } else {
        emit(spec, it->second.value);
      }
    }
  }
  metrics += "}";
  for (const Metric& m : report.metrics) {
    if (declared.count(m.name) == 0) {
      report.Invalid("undeclared metric " + m.name);
    }
  }
  if (report.attempted == 0) report.Invalid("no checked operations");

  std::string details = "{\"perfbench\": {";
  details += "\"workload\": " + JsonString(args.workload);
  details += ", \"seed\": " + std::to_string(args.seed);
  details += ", \"seconds\": " + JsonNumber(args.seconds);
  details += ", \"trace\": " + std::string(args.trace ? "true" : "false");
  details += ", \"smoke\": " + std::string(args.smoke ? "true" : "false");
  details += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  details += ", \"compiler\": " + JsonString(__VERSION__);
  details += ", \"build_type\": " + JsonString(OGDP_PERFBENCH_BUILD_TYPE);
  details += ", \"knobs\": " + KnobsJson(knobs);
  for (const auto& [key, value] : report.details) {
    details += ", " + JsonString(key) + ": " + value;
  }
  details += ", \"problems\": [";
  for (size_t i = 0; i < report.problems.size(); ++i) {
    details += (i ? ", " : "") + JsonString(report.problems[i]);
  }
  details += "]}}";
  for (const std::string& problem : report.problems) {
    std::fprintf(stderr, "ogdp_perfbench: %s\n", problem.c_str());
  }

  std::printf("%s\n", details.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              report.correct ? "true" : "false", report.attempted,
              report.failed, metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ogdp_perfbench: error: %s\n", e.what());
  } catch (...) {
    std::fprintf(stderr, "ogdp_perfbench: unknown error\n");
  }
  return 1;
}
