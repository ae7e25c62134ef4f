// query_mix: table-search users. One QueryEngine indexes all four portals;
// an open-loop generator thread submits a seeded stream (Poisson arrivals
// at a fixed offered rate, Zipf-popular tables) of join, single-column
// join, union and keyword queries through the client-tagged Submit* API.
// A publisher thread refreshes the index to the next churned epoch at
// fixed points of the schedule, so reads run beside index writes. The
// result-cache budget is pinned below the distinct-result footprint.
// Every answer is checked against the brute-force reference of the epoch
// it was computed on.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <variant>
#include <vector>

#include "core/ingestion.h"
#include "corpus/snapshot.h"
#include "perfbench/common.h"
#include "perfbench/probes.h"
#include "perfbench/trace.h"
#include "serve/brute_force.h"
#include "serve/index_snapshot.h"
#include "serve/query_engine.h"
#include "serve/result_cache.h"
#include "serve/scheduler.h"
#include "util/hash.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace perfbench {

namespace {

constexpr double kScale = 0.05;
constexpr double kSmokeScale = 0.02;
constexpr int kSetupRepeats = 3;
/// The stream opens with this much warm-up at the offered rate, answered
/// and checked but not timed: for its first one to two seconds the median
/// latency runs 1.5-2x its later level.
constexpr double kWarmupSeconds = 2;
constexpr double kSmokeWarmupSeconds = 0.2;
/// op_ms is the fastest of kReplayPasses closed-loop passes over about
/// kReplayQueries queries of the mix on the last epoch, through
/// QueryEngine's synchronous calls (result cache, then compute; no
/// scheduler).
/// - The open-loop median (query_p50_us, on the details line) is 10-15 us,
///   most of it the wake-up of an idle engine worker; on a shared host it
///   moved 15-25% between runs of the same code.
/// - A pass is CPU-bound and weighs every family by its cost, where the
///   median query is a cheap union, keyword or cache hit.
/// - A few costly queries carry much of a pass, so the replay draws its
///   queries from a fixed stream: every seed replays the same logical
///   queries, and the seed moves only the crawl order (table ids, shard
///   layout) under them. A sample drawn from the seed moved the pass time
///   6-12% from seed to seed.
/// - Other load on the host slows stretches of seconds by 10-20%. The
///   fastest pass leaves them out, as the fastest drain does for
///   query_capacity_qps; the median pass moved 11% between runs, the
///   fastest 3%. Every pass is on the details line.
constexpr int kReplayPasses = 15;
constexpr size_t kReplayQueries = 20000;
/// Offered load of the open loop, queries per second. On a 4-core x86 box
/// the open loop saturates near 120k qps (median latency doubles by 100k),
/// so this is about half of what it sustains; the backlog drain rate
/// (query_capacity_qps) runs while the generator sits idle and overstates
/// it.
constexpr double kOfferedQps = 60000;
/// Refreshes to the next churned epoch, evenly spaced in the schedule.
constexpr int kRefreshes = 2;
/// The query mix. Family shares follow bench_serve's mix (EXPERIMENTS.md),
/// which issues one join, one union and one keyword query per table: a
/// third each. Inside a family, every variant gets an equal share, and
/// the table popularity is Zipf with exponent 1. Those three choices have
/// no measured basis (no table-search query log is available); they are
/// assumptions.
constexpr double kJoinShare = 1.0 / 3;
constexpr double kUnionShare = 1.0 / 3;
constexpr double kZipfExponent = 1.0;
constexpr size_t kTopK = 10;
/// When the generator is late by more than this at its 99th percentile,
/// the offered schedule was not honoured and the run is marked invalid.
/// Latency is timed from the due time, so lag is charged to the system;
/// it peaks while a refresh's 4-thread index build shares the 4 cores
/// with the 4 engine workers and the generator (about 2 ms at p99).
constexpr double kLagBoundUs = 5000;
/// query_capacity_qps is the fastest of kCapacityRepeats back-to-back
/// drains of the same backlog. The repeats run on the same engine state,
/// yet one run shows stretches 20-25% apart (other load on the host, or
/// the workers landing on sibling hyperthreads); the fastest drain is the
/// engine's own rate, and it varies least from run to run.
constexpr size_t kCapacityBacklog = 40000;
constexpr int kCapacityRepeats = 25;
/// A traced run keeps the due-to-done span of every tenth query, which
/// keeps the span dump near 10 MB.
constexpr size_t kQuerySpanStride = 10;
const char* const kClients[] = {"analyst", "portal", "notebook", "crawler"};

enum class Kind : uint8_t { kJoinTable, kJoinColumn, kUnion, kKeyword };
const char* const kKindNames[] = {"join_table", "join_column", "union",
                                  "keyword"};

using Answer =
    std::variant<serve::JoinResult, serve::UnionResult, serve::KeywordResult>;

struct Query {
  Kind kind = Kind::kJoinTable;
  uint32_t table = 0;
  std::optional<uint32_t> column;
  std::string text;
  uint64_t due_ns = 0;   // offset from the start of the stream
  uint64_t epoch = 1;    // engine epoch published when it is due
  size_t client = 0;
  const Answer* expected = nullptr;  // brute force at `epoch`
};

serve::JoinQuery AsJoin(const Query& q) { return {q.table, q.column, kTopK}; }
serve::UnionQuery AsUnion(const Query& q) { return {q.table, kTopK}; }
serve::KeywordQuery AsKeyword(const Query& q) { return {q.text, kTopK}; }

std::string KeyOf(uint64_t epoch, const Query& q) {
  switch (q.kind) {
    case Kind::kJoinTable:
    case Kind::kJoinColumn:
      return serve::JoinCacheKey(epoch, AsJoin(q), 0);
    case Kind::kUnion:
      return serve::UnionCacheKey(epoch, AsUnion(q), 0);
    case Kind::kKeyword:
      return serve::KeywordCacheKey(epoch, AsKeyword(q), 0);
  }
  return {};
}

Answer BruteForce(const serve::IndexSnapshot& snap, const Query& q) {
  const serve::QueryBudget budget = UnlimitedBudget();
  switch (q.kind) {
    case Kind::kJoinTable:
    case Kind::kJoinColumn:
      return serve::BruteForceJoins(snap, AsJoin(q), budget);
    case Kind::kUnion:
      return serve::BruteForceUnions(snap, AsUnion(q), budget);
    case Kind::kKeyword:
      return serve::BruteForceKeywords(snap, AsKeyword(q), budget);
  }
  return {};
}

bool SameHits(const Answer& got, const Answer& want) {
  if (got.index() != want.index()) return false;
  if (const auto* g = std::get_if<serve::JoinResult>(&got)) {
    const auto& w = std::get<serve::JoinResult>(want);
    if (g->truncated || g->hits.size() != w.hits.size()) return false;
    for (size_t i = 0; i < g->hits.size(); ++i) {
      const serve::JoinHit& x = g->hits[i];
      const serve::JoinHit& y = w.hits[i];
      if (!(x.query_column == y.query_column) || !(x.match == y.match) ||
          x.jaccard != y.jaccard || x.score != y.score) {
        return false;
      }
    }
    return true;
  }
  if (const auto* g = std::get_if<serve::UnionResult>(&got)) {
    const auto& w = std::get<serve::UnionResult>(want);
    if (g->truncated || g->hits.size() != w.hits.size()) return false;
    for (size_t i = 0; i < g->hits.size(); ++i) {
      if (g->hits[i].table != w.hits[i].table ||
          g->hits[i].similarity != w.hits[i].similarity ||
          g->hits[i].exact != w.hits[i].exact) {
        return false;
      }
    }
    return true;
  }
  const auto& gk = std::get<serve::KeywordResult>(got);
  const auto& wk = std::get<serve::KeywordResult>(want);
  if (gk.truncated || gk.hits.size() != wk.hits.size()) return false;
  for (size_t i = 0; i < gk.hits.size(); ++i) {
    if (gk.hits[i].table != wk.hits[i].table ||
        gk.hits[i].score != wk.hits[i].score) {
      return false;
    }
  }
  return true;
}

uint64_t EpochOf(const Answer& a) {
  return std::visit([](const auto& r) { return r.epoch; }, a);
}

// --------------------------------------------------------------- set-up

struct Setup {
  /// Per epoch (0 = first publication): the concatenated tables of the
  /// four portals, and an independently built reference snapshot.
  std::vector<std::vector<table::Table>> tables;
  std::vector<std::shared_ptr<const serve::IndexSnapshot>> refs;
  std::unique_ptr<serve::QueryEngine> engine;
  std::vector<Query> schedule;
  /// The closed-loop replay, all on the last epoch.
  std::vector<Query> replay;
  /// Queries due before this offset are warm-up: answered, not timed.
  uint64_t warmup_ns = 0;
  std::vector<uint64_t> refresh_due_ns;
  /// Brute-force answers by canonical (epoch, query) key.
  std::unordered_map<std::string, Answer> expected;
};

std::string RandomWord(Rng& rng) {
  std::string w;
  for (int i = 0; i < 9; ++i) w += static_cast<char>('a' + rng.NextBounded(26));
  return w;
}

std::vector<Query> MakeSchedule(
    Rng rng, const std::vector<std::shared_ptr<const serve::IndexSnapshot>>& epochs,
    double seconds, const std::vector<uint64_t>& refresh_due_ns) {
  // Per epoch, popularity rank -> table id. The ranking hashes table
  // identity, not position, so the same tables are popular under every
  // seed (crawl order) and in every epoch; the seed draws the arrivals and
  // which queries hit them.
  std::vector<std::vector<uint32_t>> by_rank;
  for (const auto& snap : epochs) {
    const auto popularity = [&snap](uint32_t t) {
      return MixUint64(Fnv1a64(snap->entries[t].dataset_id + "/" +
                               snap->entries[t].name));
    };
    std::vector<uint32_t> order(snap->entries.size());
    for (uint32_t t = 0; t < order.size(); ++t) order[t] = t;
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      const uint64_t pa = popularity(a), pb = popularity(b);
      return pa != pb ? pa < pb : a < b;
    });
    by_rank.push_back(std::move(order));
  }

  std::vector<Query> out;
  double t = 0;
  const double horizon = seconds;
  while (true) {
    t += -std::log(1.0 - rng.NextDouble()) / kOfferedQps;
    if (t >= horizon) break;
    Query q;
    q.due_ns = static_cast<uint64_t>(t * 1e9);
    q.client = static_cast<size_t>(rng.NextBounded(4));
    q.epoch = 1;
    for (uint64_t due : refresh_due_ns) q.epoch += q.due_ns >= due ? 1 : 0;
    const serve::IndexSnapshot& snap = *epochs[q.epoch - 1];
    const std::vector<uint32_t>& ranks = by_rank[q.epoch - 1];
    q.table = ranks[rng.NextZipf(ranks.size(), kZipfExponent)];
    const double u = rng.NextDouble();
    if (u < kJoinShare / 2) {
      q.kind = Kind::kJoinTable;
    } else if (u < kJoinShare) {
      q.kind = Kind::kJoinColumn;
      const auto& cols = snap.columns_of_table[q.table];
      if (cols.empty()) {
        q.kind = Kind::kJoinTable;
      } else {
        q.column = static_cast<uint32_t>(
            snap.column_sets[cols[rng.NextBounded(cols.size())]].ref.column);
      }
    } else if (u < kJoinShare + kUnionShare) {
      q.kind = Kind::kUnion;
    } else {
      // Keyword text: the table's name, two of its headers, or two random
      // words that hit nothing, a third each.
      q.kind = Kind::kKeyword;
      const double v = rng.NextDouble();
      const table::Schema& schema = snap.schemas[q.table];
      if (v < 1.0 / 3 || schema.num_fields() < 2) {
        q.text = snap.entries[q.table].name;
      } else if (v < 2.0 / 3) {
        const size_t a = rng.NextBounded(schema.num_fields());
        const size_t b = rng.NextBounded(schema.num_fields());
        q.text = schema.field(a).name + " " + schema.field(b).name;
      } else {
        q.text = RandomWord(rng) + " " + RandomWord(rng);  // no hits
      }
    }
    out.push_back(std::move(q));
  }
  return out;
}

Setup SetUp(const Args& args, const Knobs& knobs, double scale) {
  Setup s;
  const core::IngestOptions ingest = IngestOptionsFor(fetch::FaultProfile{});
  std::vector<corpus::PortalSnapshot> bases = CalibratedPortals(scale);
  s.tables.resize(kRefreshes + 1);
  for (int e = 0; e <= kRefreshes; ++e) {
    for (corpus::PortalSnapshot& base : bases) {
      if (e > 0) {
        base = corpus::AdvanceEpoch(base, corpus::ChurnForPortal(base.portal.name),
                                    static_cast<size_t>(e));
      }
      const corpus::PortalSnapshot snap = CrawlOrder(base, args.seed);
      core::IngestResult in = core::IngestPortal(snap.portal, ingest);
      for (table::Table& t : in.tables) s.tables[e].push_back(std::move(t));
    }
  }
  const serve::ServeOptions options = ServeOptionsFor(knobs);
  s.engine = std::make_unique<serve::QueryEngine>(options, knobs.engine_workers,
                                                  EngineOptionsFor(knobs));
  s.refs.push_back(s.engine->Refresh(s.tables[0]));
  for (int e = 1; e <= kRefreshes; ++e) {
    s.refs.push_back(serve::BuildIndexSnapshot(s.tables[e], options,
                                               static_cast<uint64_t>(e + 1)));
  }
  const double warmup = args.smoke ? kSmokeWarmupSeconds : kWarmupSeconds;
  s.warmup_ns = static_cast<uint64_t>(warmup * 1e9);
  for (int r = 1; r <= kRefreshes; ++r) {
    s.refresh_due_ns.push_back(s.warmup_ns + static_cast<uint64_t>(
        args.seconds * 1e9 * r / (kRefreshes + 1)));
  }
  s.schedule = MakeSchedule(Rng(MixUint64(args.seed)).Fork("query_mix"), s.refs,
                            warmup + args.seconds, s.refresh_due_ns);
  // Refreshes "due" at 0 put every replayed query on the last epoch.
  s.replay = MakeSchedule(Rng(MixUint64(0)).Fork("query_mix_replay"), s.refs,
                          static_cast<double>(kReplayQueries) / kOfferedQps,
                          std::vector<uint64_t>(kRefreshes, 0));

  // Expected answers for every distinct (epoch, query).
  std::vector<const Query*> distinct;
  for (const std::vector<Query>* list : {&s.schedule, &s.replay}) {
    for (const Query& q : *list) {
      if (s.expected.try_emplace(KeyOf(q.epoch, q)).second) distinct.push_back(&q);
    }
  }
  std::vector<Answer> answers(distinct.size());
  util::ParallelFor(0, distinct.size(), [&](size_t k) {
    answers[k] = BruteForce(*s.refs[distinct[k]->epoch - 1], *distinct[k]);
  });
  for (size_t k = 0; k < distinct.size(); ++k) {
    s.expected[KeyOf(distinct[k]->epoch, *distinct[k])] = std::move(answers[k]);
  }
  for (std::vector<Query>* list : {&s.schedule, &s.replay}) {
    for (Query& q : *list) q.expected = &s.expected.at(KeyOf(q.epoch, q));
  }
  return s;
}

// ------------------------------------------------------------ open loop

struct Pending {
  size_t index = 0;
  std::future<serve::JoinResult> join;
  std::future<serve::UnionResult> union_;
  std::future<serve::KeywordResult> keyword;
};

std::future_status Poll(const Pending& p) {
  constexpr auto kNow = std::chrono::seconds(0);
  if (p.join.valid()) return p.join.wait_for(kNow);
  if (p.union_.valid()) return p.union_.wait_for(kNow);
  return p.keyword.wait_for(kNow);
}

Pending Submit(serve::QueryEngine& engine, const Query& q, size_t index) {
  Pending p;
  p.index = index;
  const std::string client = kClients[q.client];
  switch (q.kind) {
    case Kind::kJoinTable:
    case Kind::kJoinColumn:
      p.join = engine.SubmitJoins(client, AsJoin(q), UnlimitedBudget());
      break;
    case Kind::kUnion:
      p.union_ = engine.SubmitUnions(client, AsUnion(q), UnlimitedBudget());
      break;
    case Kind::kKeyword:
      p.keyword = engine.SubmitKeywords(client, AsKeyword(q), UnlimitedBudget());
      break;
  }
  return p;
}

enum class Outcome : uint8_t { kPending, kOk, kShed, kError };
enum class Verdict : uint8_t { kPending, kMatch, kMismatch, kLater };

// Collects a ready future; false when it delivered an exception.
Outcome Collect(Pending& p, Answer& out) {
  try {
    if (p.join.valid()) {
      out = p.join.get();
    } else if (p.union_.valid()) {
      out = p.union_.get();
    } else {
      out = p.keyword.get();
    }
    return Outcome::kOk;
  } catch (const serve::SchedulerRejectedError&) {
    return Outcome::kShed;
  } catch (...) {
    return Outcome::kError;
  }
}

struct Stream {
  std::vector<Outcome> outcomes;
  std::vector<Verdict> verdicts;
  /// Answers computed on another epoch than scheduled (the query straddled
  /// a refresh), checked after the stream.
  std::vector<std::pair<size_t, Answer>> straddled;
  std::vector<double> latency_us;  // due -> done; +inf when not answered
  std::vector<double> lag_us;      // due -> submitted
  std::vector<double> refresh_seconds;
  std::vector<std::shared_ptr<const serve::IndexSnapshot>> published;
  size_t queued_max = 0;
  /// Answered queries per second from the first due time to the last
  /// answer: the offered rate while the system keeps up, less once a
  /// backlog has to drain after the last arrival.
  double goodput_qps = 0;
};

// Runs the schedule open loop: the calling thread is the generator (it
// submits each query at its due time and, between submissions, polls the
// outstanding futures for completion); one publisher thread refreshes the
// index at the scheduled points.
Stream RunStream(Setup& s, Tracer& tracer) {
  const size_t n = s.schedule.size();
  Stream out;
  out.outcomes.assign(n, Outcome::kPending);
  out.verdicts.assign(n, Verdict::kPending);
  out.latency_us.assign(n, 0);
  out.lag_us.assign(n, 0);
  const uint64_t start = NowNs() + 2'000'000;  // 2 ms to get going

  std::jthread publisher([&] {
    for (int r = 1; r <= kRefreshes; ++r) {
      const uint64_t due = start + s.refresh_due_ns[r - 1];
      while (NowNs() < due) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      auto span = tracer.Span("serve.refresh", r + 1);
      const uint64_t t0 = NowNs();
      out.published.push_back(s.engine->Refresh(s.tables[r]));
      out.refresh_seconds.push_back(SecondsSince(t0));
    }
  });

  std::vector<Pending> pending;
  pending.reserve(1024);
  size_t next = 0;
  size_t answered = 0;
  uint64_t last_done = start;
  while (next < n || !pending.empty()) {
    const uint64_t now = NowNs();
    if (next < n && now >= start + s.schedule[next].due_ns) {
      const uint64_t due = start + s.schedule[next].due_ns;
      pending.push_back(Submit(*s.engine, s.schedule[next], next));
      out.lag_us[next] = static_cast<double>(now - due) * 1e-3;
      if (tracer.enabled() && next % 32 == 0) {
        out.queued_max =
            std::max(out.queued_max, s.engine->scheduler_stats().queued);
      }
      ++next;
      continue;
    }
    for (size_t i = 0; i < pending.size();) {
      if (Poll(pending[i]) != std::future_status::ready) {
        ++i;
        continue;
      }
      const size_t q = pending[i].index;
      const uint64_t done = NowNs();
      const Query& query = s.schedule[q];
      const uint64_t due = start + query.due_ns;
      Answer answer;
      out.outcomes[q] = Collect(pending[i], answer);
      out.latency_us[q] = out.outcomes[q] == Outcome::kOk
                              ? static_cast<double>(done - due) * 1e-3
                              : INFINITY;
      if (q % kQuerySpanStride == 0) {
        tracer.Record("serve.query", due, done, static_cast<int64_t>(q));
      }
      if (out.outcomes[q] == Outcome::kOk) {
        ++answered;
        last_done = std::max(last_done, done);
        if (EpochOf(answer) == query.epoch) {
          out.verdicts[q] = SameHits(answer, *query.expected)
                                ? Verdict::kMatch
                                : Verdict::kMismatch;
        } else {
          out.verdicts[q] = Verdict::kLater;
          out.straddled.emplace_back(q, std::move(answer));
        }
      }
      pending[i] = std::move(pending.back());
      pending.pop_back();
    }
    // Nothing due: let a runnable engine worker have this core.
    std::this_thread::yield();
  }
  publisher.join();
  out.goodput_qps =
      static_cast<double>(answered) / (static_cast<double>(last_done - start) * 1e-9);
  return out;
}

// Checks schedule query `i` against the brute-force answer of the epoch it
// was computed on, computing that answer when set-up did not.
void CheckAnswer(Setup& s, size_t i, const Answer& answer, Report& report) {
  const Query& q = s.schedule[i];
  const uint64_t epoch = EpochOf(answer);
  if (epoch < 1 || epoch > s.refs.size()) {
    report.Check(false, "answer carries unknown epoch");
    return;
  }
  auto [it, inserted] = s.expected.try_emplace(KeyOf(epoch, q));
  if (inserted) it->second = BruteForce(*s.refs[epoch - 1], q);
  report.Check(SameHits(answer, it->second),
               "query " + std::to_string(i) + " differs from brute force");
}

// Drain rate of a backlog submitted all at once, queries per second. The
// backlog is the tail of the schedule: queries drawn on the last epoch,
// which the engine serves once the stream is over. Every answer is checked
// after the clock stops.
double MeasureCapacity(Setup& s, Report& report) {
  const size_t n = std::min(kCapacityBacklog, s.schedule.size());
  const size_t first = s.schedule.size() - n;
  std::vector<Pending> pending;
  pending.reserve(n);
  std::vector<Answer> answers(n);
  std::vector<Outcome> outcomes(n);
  const uint64_t t0 = NowNs();
  for (size_t i = first; i < s.schedule.size(); ++i) {
    pending.push_back(Submit(*s.engine, s.schedule[i], i));
  }
  for (size_t k = 0; k < n; ++k) outcomes[k] = Collect(pending[k], answers[k]);
  const double rate = static_cast<double>(n) / SecondsSince(t0);
  for (size_t k = 0; k < n; ++k) {
    if (outcomes[k] != Outcome::kOk) {
      report.Check(false, "backlog query " + std::to_string(first + k) +
                              " not answered");
    } else {
      CheckAnswer(s, first + k, answers[k], report);
    }
  }
  return rate;
}

// Seconds spent in QueryEngine's synchronous calls over the replay list,
// called in order on the calling thread once the stream has published the
// last epoch. Every answer is checked after its call, off the clock.
double ReplayPassSeconds(Setup& s, Report& report) {
  const uint64_t last = s.refs.size();
  uint64_t busy_ns = 0;
  for (size_t i = 0; i < s.replay.size(); ++i) {
    const Query& q = s.replay[i];
    const uint64_t t0 = NowNs();
    Answer answer;
    if (q.kind == Kind::kUnion) {
      answer = s.engine->Unions(AsUnion(q), UnlimitedBudget());
    } else if (q.kind == Kind::kKeyword) {
      answer = s.engine->Keywords(AsKeyword(q), UnlimitedBudget());
    } else {
      answer = s.engine->Joins(AsJoin(q), UnlimitedBudget());
    }
    busy_ns += NowNs() - t0;
    const bool ok = EpochOf(answer) == last && SameHits(answer, *q.expected);
    report.Check(ok, ok ? std::string() : "replayed query " + std::to_string(i) +
                                              " differs from brute force");
  }
  return static_cast<double>(busy_ns) * 1e-9;
}

// ----------------------------------------------------------------- probe

struct ServeProbe {
  std::vector<double> join_us, union_us, keyword_us;
  size_t join_candidates = 0, join_hits = 0, keyword_candidates = 0;
};

// Direct QueryJoins/QueryUnions/QueryKeywords, each on the snapshot of the
// epoch it is scheduled in, for every distinct query of the schedule: no
// cache, no scheduler. One span per family.
ServeProbe ProbeServe(const Setup& s, Tracer& tracer) {
  ServeProbe probe;
  std::unordered_map<std::string, bool> seen;
  std::vector<const Query*> joins, unions, keywords;
  for (const Query& q : s.schedule) {
    if (!seen.try_emplace(KeyOf(q.epoch, q), true).second) continue;
    (q.kind == Kind::kUnion     ? unions
     : q.kind == Kind::kKeyword ? keywords
                                : joins)
        .push_back(&q);
  }
  const auto snap = [&s](const Query* q) -> const serve::IndexSnapshot& {
    return *s.refs[q->epoch - 1];
  };
  const serve::QueryBudget budget = UnlimitedBudget();
  {
    auto span = tracer.Span("serve.probe_join");
    for (const Query* q : joins) {
      const uint64_t t0 = NowNs();
      const serve::JoinResult r = serve::QueryJoins(snap(q), AsJoin(*q), budget);
      probe.join_us.push_back(SecondsSince(t0) * 1e6);
      probe.join_candidates += r.candidates_considered;
      probe.join_hits += r.hits.size();
    }
  }
  {
    auto span = tracer.Span("serve.probe_union");
    for (const Query* q : unions) {
      const uint64_t t0 = NowNs();
      serve::QueryUnions(snap(q), AsUnion(*q), budget);
      probe.union_us.push_back(SecondsSince(t0) * 1e6);
    }
  }
  {
    auto span = tracer.Span("serve.probe_keyword");
    for (const Query* q : keywords) {
      const uint64_t t0 = NowNs();
      const serve::KeywordResult r =
          serve::QueryKeywords(snap(q), AsKeyword(*q), budget);
      probe.keyword_us.push_back(SecondsSince(t0) * 1e6);
      probe.keyword_candidates += r.candidates_considered;
    }
  }
  return probe;
}

// Idle submit -> get overhead: a cached query through the scheduler minus
// the same cached query called synchronously, median microseconds.
double DispatchUs(serve::QueryEngine& engine, const Query& q) {
  constexpr int kReps = 300;
  const serve::UnionQuery uq = AsUnion(q);
  engine.Unions(uq, UnlimitedBudget());  // now cached
  std::vector<double> async_us, sync_us;
  for (int i = 0; i < kReps; ++i) {
    uint64_t t0 = NowNs();
    engine.SubmitUnions(kClients[0], uq, UnlimitedBudget()).get();
    async_us.push_back(SecondsSince(t0) * 1e6);
    t0 = NowNs();
    engine.Unions(uq, UnlimitedBudget());
    sync_us.push_back(SecondsSince(t0) * 1e6);
  }
  return Median(async_us) - Median(sync_us);
}

// Distinct-result footprint of the first epoch: every distinct query run
// once through an engine whose result cache has no budget line.
size_t ResultFootprintBytes(const Setup& s, const Knobs& knobs) {
  Knobs unlimited = knobs;
  unlimited.result_cache_budget_bytes = fd::kUnlimitedFdMemoryBudget;
  serve::QueryEngine probe(ServeOptionsFor(knobs), 1, EngineOptionsFor(unlimited));
  probe.Refresh(s.tables[0]);
  for (const Query& q : s.schedule) {
    if (q.epoch != 1) break;
    if (q.kind == Kind::kUnion) {
      probe.Unions(AsUnion(q), UnlimitedBudget());
    } else if (q.kind == Kind::kKeyword) {
      probe.Keywords(AsKeyword(q), UnlimitedBudget());
    } else {
      probe.Joins(AsJoin(q), UnlimitedBudget());
    }
  }
  return probe.cache_stats().bytes_in_use;
}

}  // namespace

void RunQueryMix(const Args& args, const Knobs& knobs, Report& report) {
  const double scale = args.smoke ? kSmokeScale : kScale;
  report.Detail("scale", scale);
  report.Detail("fault_profile", FaultsJson(*IngestOptionsFor({}).faults));
  report.Detail("offered_qps", kOfferedQps);
  report.Detail("join_share", kJoinShare);
  report.Detail("union_share", kUnionShare);
  report.Detail("keyword_share", 1 - kJoinShare - kUnionShare);
  report.Detail("zipf_exponent", kZipfExponent);
  report.Detail("lag_bound_us", kLagBoundUs);

  std::vector<double> setup_seconds;
  Setup s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    s = Setup{};  // free the previous set-up before building the next
    const uint64_t t0 = NowNs();
    s = SetUp(args, knobs, scale);
    setup_seconds.push_back(SecondsSince(t0));
  }
  const size_t footprint = ResultFootprintBytes(s, knobs);
  report.Detail("result_cache_budget_bytes",
                static_cast<double>(knobs.result_cache_budget_bytes));
  report.Detail("distinct_result_footprint_bytes", static_cast<double>(footprint));
  if (footprint <= knobs.result_cache_budget_bytes) {
    report.Invalid("result cache budget holds the distinct-result footprint");
  }

  Tracer tracer(args.trace);
  std::optional<ServeProbe> probe;
  Stream stream;
  {
    // The open loop is one stage ("loadgen"), so on this workload the
    // stage-coverage check only confirms that the probes and the stream
    // fill the traced pass; it cannot find gaps inside the stream.
    auto root = tracer.Span("pass");
    if (args.trace) probe = ProbeServe(s, tracer);
    auto span = tracer.Span("loadgen");
    ResetPeakRss();
    stream = RunStream(s, tracer);
  }
  const double stream_rss_mb = PeakRssMb();

  // Checks: every answer against the brute-force answer of its epoch, and
  // every published snapshot against the independently built reference.
  for (size_t r = 0; r < stream.published.size(); ++r) {
    report.Check(stream.published[r]->Digest() == s.refs[r + 1]->Digest(),
                 "published snapshot differs from the reference build");
  }
  // Latency statistics cover the timed stream only, the warm-up left out.
  size_t shed = 0, errors = 0;
  std::vector<double> timed_us, lag_us, family_us[3];
  for (size_t i = 0; i < s.schedule.size(); ++i) {
    const Query& q = s.schedule[i];
    if (q.due_ns >= s.warmup_ns) {
      const int family =
          q.kind == Kind::kUnion ? 1 : q.kind == Kind::kKeyword ? 2 : 0;
      timed_us.push_back(stream.latency_us[i]);
      lag_us.push_back(stream.lag_us[i]);
      family_us[family].push_back(stream.latency_us[i]);
    }
    const std::string what = std::string(kKindNames[static_cast<int>(q.kind)]) +
                             " query " + std::to_string(i);
    if (stream.outcomes[i] != Outcome::kOk) {
      shed += stream.outcomes[i] == Outcome::kShed;
      errors += stream.outcomes[i] != Outcome::kShed;
      report.Check(false, what + " not answered");
    } else if (stream.verdicts[i] != Verdict::kLater) {
      report.Check(stream.verdicts[i] == Verdict::kMatch,
                   what + " differs from brute force");
    }
  }
  for (auto& [i, answer] : stream.straddled) CheckAnswer(s, i, answer, report);
  report.Detail("straddled_refresh", static_cast<double>(stream.straddled.size()));

  const double lag_p99 = Percentile(lag_us, 0.99);
  // The smoke self-test checks outputs only; its one-second stream is too
  // short for a stable lag percentile.
  if (lag_p99 > kLagBoundUs && !args.smoke) {
    report.Invalid("generator lag p99 " + std::to_string(lag_p99) +
                   " us exceeds the bound");
  }
  const double p50 = Percentile(timed_us, 0.50);
  const double p99 = Percentile(timed_us, 0.99);
  report.Detail("warmup_queries",
                static_cast<double>(s.schedule.size() - timed_us.size()));
  report.Detail("queries", static_cast<double>(timed_us.size()));
  report.Detail("query_p50_us", p50);
  report.Detail("query_p99_us", p99);
  report.Detail("join_p50_us", Percentile(family_us[0], 0.5));
  report.Detail("union_p50_us", Percentile(family_us[1], 0.5));
  report.Detail("keyword_p50_us", Percentile(family_us[2], 0.5));
  report.Detail("join_queries", static_cast<double>(family_us[0].size()));
  report.Detail("union_queries", static_cast<double>(family_us[1].size()));
  report.Detail("keyword_queries", static_cast<double>(family_us[2].size()));
  report.Detail("loadgen_lag_p99_us", lag_p99);
  report.Detail("loadgen_lag_p50_us", Percentile(lag_us, 0.5));
  report.Detail("loadgen_lag_max_us", Percentile(lag_us, 1.0));
  report.Detail("refresh_seconds", JsonArray(stream.refresh_seconds));
  report.Detail("shed", static_cast<double>(shed));
  report.Detail("errors", static_cast<double>(errors));
  report.Detail("goodput_qps", stream.goodput_qps);

  if (!args.trace) {
    std::vector<double> capacity;
    for (int rep = 0; rep < kCapacityRepeats; ++rep) {
      capacity.push_back(MeasureCapacity(s, report));
    }
    const double capacity_qps = *std::max_element(capacity.begin(), capacity.end());
    report.Detail("query_capacity_qps", capacity_qps);
    report.Detail("query_capacity_median_qps", Median(capacity));
    report.Detail("query_capacity_repeats", JsonArray(capacity));
    std::vector<double> replay_ms;
    for (int pass = 0; pass < kReplayPasses; ++pass) {
      replay_ms.push_back(ReplayPassSeconds(s, report) * 1e3);
    }
    report.Detail("replay_queries", static_cast<double>(s.replay.size()));
    report.Detail("replay_pass_ms", JsonArray(replay_ms));
    report.Add("setup_s", Median(setup_seconds), "s");
    report.Add("peak_rss_mb", stream_rss_mb, "MB");
    report.Add("op_ms", *std::min_element(replay_ms.begin(), replay_ms.end()), "ms");
    report.Add("throughput_per_s", capacity_qps, "1/s");
    return;
  }

  const serve::ResultCacheStats cache = s.engine->cache_stats();
  const size_t lookups = cache.hits + cache.misses;
  report.Add("serve.refresh_s", [&] {
    double t = 0;
    for (double x : stream.refresh_seconds) t += x;
    return t;
  }(), "s");
  report.Add("serve.column_sets", static_cast<double>(s.refs[0]->column_sets.size()),
             "count");
  report.Add("serve.join_compute_us", Median(probe->join_us), "us");
  report.Add("serve.union_compute_us", Median(probe->union_us), "us");
  report.Add("serve.keyword_compute_us", Median(probe->keyword_us), "us");
  report.Add("serve.join_candidates",
             static_cast<double>(probe->join_candidates), "count");
  report.Add("serve.join_yield",
             probe->join_candidates > 0
                 ? static_cast<double>(probe->join_hits) /
                       static_cast<double>(probe->join_candidates)
                 : 0,
             "ratio");
  report.Add("serve.keyword_candidates",
             static_cast<double>(probe->keyword_candidates), "count");
  report.Add("serve.cache_hit_ratio",
             lookups > 0 ? static_cast<double>(cache.hits) /
                               static_cast<double>(lookups)
                         : 0,
             "ratio");
  report.Add("serve.cache_lookups", static_cast<double>(lookups), "count");
  report.Add("serve.cache_evictions", static_cast<double>(cache.evictions), "count");
  report.Add("serve.cache_invalidated", static_cast<double>(cache.invalidated),
             "count");
  report.Add("serve.dispatch_us", DispatchUs(*s.engine, s.schedule.front()), "us");
  report.Add("serve.queued_max", static_cast<double>(stream.queued_max), "count");
  report.Add("serve.shed", static_cast<double>(s.engine->scheduler_stats().shed),
             "count");
  report.Add("loadgen.lag_p99_us", lag_p99, "us");
  AddTraceMetrics(tracer, report);
  report.Detail("trace_file", JsonString(args.trace_file));
  tracer.WriteChromeTrace(args.trace_file);
}

}  // namespace perfbench
