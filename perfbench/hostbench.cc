// Host-cost benchmark of the HAPE engine.
//
// HAPE runs on two clocks: simulated seconds (the paper's results, exact
// and deterministic) and host seconds (what running the engine costs).
// This program drives one workload through the public API of serve,
// engine, opt, lint and queries, checks every result, and prints both
// kinds of metric:
//
//   hape_perfbench --workload serve_replay|tpch_solo|batch_fairshare
//                  [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (and writes benchmark-side spans plus per-layer self times to DIR). The
// last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is non-zero on any wrong result or exactness mismatch.
// See README.md next to this file for what each workload and metric is.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "codegen/kernels.h"
#include "common/json.h"
#include "engine/engine.h"
#include "engine/scheduler.h"
#include "lint/plan_lint.h"
#include "queries/tpch_queries.h"
#include "serve/query_service.h"
#include "serve/workload.h"

namespace {

using namespace hape;  // NOLINT
using Groups = std::map<int64_t, std::vector<double>>;

// ---- clock, samples ----------------------------------------------------

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Timing samples; quantiles are nearest-rank over the sorted values.
struct Samples {
  std::vector<double> v;

  void Add(double x) { v.push_back(x); }
  void Append(const Samples& o) { v.insert(v.end(), o.v.begin(), o.v.end()); }
  size_t n() const { return v.size(); }
  double Quantile(double p) const {
    if (v.empty()) return 0;
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(p * static_cast<double>(s.size())));
    return s[std::min(s.size() - 1, rank == 0 ? 0 : rank - 1)];
  }
  double Median() const { return Quantile(0.5); }
};

// ---- benchmark-side spans ----------------------------------------------

/// One recorded span: a call the benchmark made into a module's public
/// API. The module is the name's prefix up to the first '.'.
struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span, -1 at top level
  int query = -1;   ///< per-query id, -1 when the span is not per query
};

/// In-memory span log. Off, it records nothing (Span still times).
class SpanLog {
 public:
  bool on = false;

  int Begin(const char* name, int query, int64_t start) {
    if (!on) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(SpanRecord{name, start, 0, parent, query});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int id, int64_t end) {
    if (id < 0) return;
    spans_[id].end_ns = end;
    HAPE_CHECK(!open_.empty() && open_.back() == id) << "unbalanced span";
    open_.pop_back();
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// Scoped timer around one public call; records a span when the log is on.
class Span {
 public:
  Span(SpanLog* log, const char* name, int query = -1)
      : log_(log), start_(NowNs()), id_(log->Begin(name, query, start_)) {}
  ~Span() { Stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (once) and returns its duration in seconds.
  double Stop() {
    if (end_ == 0) {
      end_ = NowNs();
      log_->End(id_, end_);
    }
    return static_cast<double>(end_ - start_) * 1e-9;
  }
  int64_t start_ns() const { return start_; }

 private:
  SpanLog* log_;
  int64_t start_;
  int id_;
  int64_t end_ = 0;
};

// ---- metrics output ----------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           size_t samples) {
    metrics_.push_back(
        Metric{std::move(name), value, std::move(unit), samples});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// ---- exact work counts -------------------------------------------------

/// Counts and simulated figures that must repeat bit for bit on every
/// pass of a run (traced or not). Compared as a whole against the first
/// pass; a mismatch is a failure, never noise.
using Exact = std::map<std::string, double>;

double CounterValue(const obs::MetricsRegistry& m, const char* name) {
  const obs::Counter* c = m.FindCounter(name);
  return c == nullptr ? 0.0 : c->value;
}

/// Engine-registry counters every workload reports, accumulated into `e`.
void AddEngineCounters(const obs::MetricsRegistry& m, Exact* e) {
  static const char* const kNames[] = {
      "engine.pipelines",         "engine.packets",
      "engine.mem_moves",         "engine.moved_bytes",
      "engine.transfer_busy_s",   "engine.transfer_exposed_s",
      "scheduler.admissions",     "scheduler.preemptions",
      "scheduler.admission_waves", "plan_cache.hits",
      "plan_cache.misses",        "lint.runs",
      "serve.lint.runs"};
  for (const char* n : kNames) (*e)[n] += CounterValue(m, n);
}

void AddKernelDelta(const codegen::KernelCounterSnapshot& a,
                    const codegen::KernelCounterSnapshot& b, Exact* e) {
  (*e)["codegen.filter_rows"] +=
      static_cast<double>(b.filter_rows - a.filter_rows);
  (*e)["codegen.hashed_keys"] +=
      static_cast<double>(b.hashed_keys - a.hashed_keys);
  (*e)["codegen.probed_keys"] +=
      static_cast<double>(b.probed_keys - a.probed_keys);
  (*e)["codegen.bulk_inserts"] +=
      static_cast<double>(b.bulk_inserts - a.bulk_inserts);
  (*e)["codegen.hash_cache_hits"] +=
      static_cast<double>(b.hash_cache_hits - a.hash_cache_hits);
  (*e)["codegen.hash_cache_misses"] +=
      static_cast<double>(b.hash_cache_misses - a.hash_cache_misses);
}

double Get(const Exact& e, const char* name) {
  auto it = e.find(name);
  return it == e.end() ? 0.0 : it->second;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// ---- result checks -----------------------------------------------------

/// Relative-tolerance match against a scalar reference (the bound the
/// query test suite uses: summation order differs from the reference).
bool NearGroups(const Groups& ref, const Groups& got) {
  if (ref.size() != got.size()) return false;
  for (const auto& [key, vals] : ref) {
    auto it = got.find(key);
    if (it == got.end() || it->second.size() != vals.size()) return false;
    for (size_t i = 0; i < vals.size(); ++i) {
      const double scale = std::abs(vals[i]) + 1;
      if (std::abs(it->second[i] / scale - vals[i] / scale) > 1e-9) {
        return false;
      }
    }
  }
  return true;
}

using RefFn = queries::QueryResult (*)(const queries::TpchContext&);

/// Scalar Q9* with join semantics for repeated partsupp keys: every
/// partsupp row matching a lineitem row contributes, as in the engine's
/// hash join. RefQ9 keeps one supply cost per (partkey, suppkey), which is
/// the same thing only while that key is unique; the TPC-H generator
/// repeats it below SF 0.01 (fewer than 100 suppliers).
queries::QueryResult RefQ9AllMatches(const queries::TpchContext& ctx) {
  queries::QueryResult r;
  const storage::Table& l = *ctx.catalog.Get("lineitem").value();
  const storage::Table& o = *ctx.catalog.Get("orders").value();
  const storage::Table& s = *ctx.catalog.Get("supplier").value();
  const storage::Table& ps = *ctx.catalog.Get("partsupp").value();
  std::map<int64_t, int32_t> order_date;
  auto ok = o.column("o_orderkey")->i64();
  auto od = o.column("o_orderdate")->i32();
  for (size_t i = 0; i < o.num_rows(); ++i) order_date[ok[i]] = od[i];
  std::map<int64_t, int64_t> supp_nation;
  auto sk = s.column("s_suppkey")->i64();
  auto nk = s.column("s_nationkey")->i64();
  for (size_t i = 0; i < s.num_rows(); ++i) supp_nation[sk[i]] = nk[i];
  std::map<std::pair<int64_t, int64_t>, std::vector<double>> ps_costs;
  auto pp = ps.column("ps_partkey")->i64();
  auto ps_s = ps.column("ps_suppkey")->i64();
  auto sc = ps.column("ps_supplycost")->f64();
  for (size_t i = 0; i < ps.num_rows(); ++i) {
    ps_costs[{pp[i], ps_s[i]}].push_back(sc[i]);
  }
  auto lo = l.column("l_orderkey")->i64();
  auto lp = l.column("l_partkey")->i64();
  auto ls = l.column("l_suppkey")->i64();
  auto qty = l.column("l_quantity")->f64();
  auto price = l.column("l_extendedprice")->f64();
  auto disc = l.column("l_discount")->f64();
  for (size_t i = 0; i < l.num_rows(); ++i) {
    auto oit = order_date.find(lo[i]);
    auto sit = supp_nation.find(ls[i]);
    auto pit = ps_costs.find({lp[i], ls[i]});
    if (oit == order_date.end() || sit == supp_nation.end() ||
        pit == ps_costs.end()) {
      continue;
    }
    auto& g = r.groups[sit->second * 10000 + oit->second / 10000];
    if (g.empty()) g.assign(1, 0.0);
    for (double cost : pit->second) {
      g[0] += price[i] * (1 - disc[i]) - cost * qty[i];
    }
  }
  return r;
}

/// TPC-H reference for a workload label ("q5#12" -> RefQ5), or null.
RefFn TpchRefForLabel(const std::string& label) {
  if (label.rfind("q1#", 0) == 0) return queries::RefQ1;
  if (label.rfind("q3#", 0) == 0) return queries::RefQ3;
  if (label.rfind("q5#", 0) == 0) return queries::RefQ5;
  if (label.rfind("q6#", 0) == 0) return queries::RefQ6;
  if (label.rfind("q9#", 0) == 0) return RefQ9AllMatches;
  return nullptr;
}

// ---- shared state of one run ---------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 17;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

/// Every workload pins the data plane: vectorized, one packet thread.
constexpr int kPacketThreads = 1;

/// Merge one schedule's (or trace's) exact counts into a pass total:
/// peaks take the maximum, everything else adds up.
void Merge(const Exact& src, Exact* dst) {
  for (const auto& [k, v] : src) {
    double& d = (*dst)[k];
    d = k.find("peak") != std::string::npos ? std::max(d, v) : d + v;
  }
}

/// What one pass over a workload's traces adds up to.
struct PassTotals {
  Exact exact;        ///< merged over the pass's traces
  double secs = 0;    ///< host seconds of the pass (traced: with dumps)
  double exec_s = 0;  ///< host seconds inside the execution calls
  double events = 0;  ///< engine trace events (traced passes)
  /// Simulated finish - arrival of every completed tier-0 query, pooled
  /// over the pass's traces.
  Samples tier0_latency;
};

/// Host times of the per-layer probes on distinct statements (traced runs):
/// the plan JSON round trip, the lint pass and the optimizer, called alone.
struct ProbeTimes {
  Samples dump_us, load_us, lint_us, optimize_ms;
};

/// Host timings and exact counts one workload collects, reported through
/// the same metric definitions for every workload.
struct Figures {
  Samples submit_us;    ///< handing one query to the system
  Samples query_ms;     ///< one query, request to result read
  Samples exec_s;       ///< per pass: Engine::Run / RunAll / service Run
  Samples optimize_ms;  ///< Engine::Optimize calls
  Samples submit_hit_us, submit_miss_us, serve_run_s, run_all_ms;
  std::map<std::string, Samples> run_ms;  ///< Engine::Run per TPC-H query
  double completed = 0;  ///< completed queries over all timed passes
  double timed_s = 0;    ///< host seconds of the timed phase
  /// Sim figures are summed over this many traces and reported as means.
  double traces = 1;
  double queries_per_pass = 0;

  /// Add one unit pass's host timings to these. exec_s is kept per pass,
  /// and traces and queries_per_pass per workload, so none is added.
  void Append(const Figures& o) {
    for (Samples Figures::*s :
         {&Figures::submit_us, &Figures::query_ms, &Figures::optimize_ms,
          &Figures::submit_hit_us, &Figures::submit_miss_us,
          &Figures::serve_run_s, &Figures::run_all_ms}) {
      (this->*s).Append(o.*s);
    }
    for (const auto& [name, samples] : o.run_ms) run_ms[name].Append(samples);
    completed += o.completed;
    timed_s += o.timed_s;
  }
};

/// One unit of a workload's pass (a replay trace, a batch, a TPC-H query)
/// as timed on one untraced pass.
struct UnitPass {
  double secs = 0;
  Figures f;
};

struct Run {
  Args args;
  SpanLog spans;
  Samples setup_s;
  Figures f;
  ProbeTimes probes;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool checks_ok = true;
  std::vector<std::string> notes;  ///< first few failure descriptions
  std::map<int, Exact> first;      ///< first pass's counts, per trace
  bool have_exact = false;
  Exact exact;  ///< the first pass's counts, merged over its traces
  Samples tier0_latency;  ///< the first pass's, pooled over its traces
  std::map<int, std::vector<UnitPass>> unit_passes;  ///< per unit
  Samples pass_untraced_s;
  Samples pass_traced_s;
  double trace_events = -1;
  bool q9_noted = false;  ///< the RefQ9 note is printed once per run

  void Fail(const std::string& what) {
    checks_ok = false;
    if (notes.size() < 8) notes.push_back(what);
  }
  /// Compare trace `key`'s exact counts with its first pass.
  void CheckExact(int key, const Exact& e, uint64_t queries) {
    auto [it, fresh] = first.emplace(key, e);
    if (fresh || it->second == e) return;
    failed += queries;
    for (const auto& [k, v] : e) {
      if (Get(it->second, k.c_str()) != v) {
        Fail("exact count drifted between passes: " + k);
        return;
      }
    }
    Fail("exact count set changed between passes");
  }
  /// Close a pass: host seconds, merged exact counts, trace event count.
  void EndPass(bool traced, const PassTotals& t) {
    (traced ? pass_traced_s : pass_untraced_s).Add(t.secs);
    f.exec_s.Add(t.exec_s);
    if (!have_exact) {
      exact = t.exact;
      tier0_latency = t.tier0_latency;
      have_exact = true;
    }
    if (!traced) return;
    if (trace_events >= 0 && trace_events != t.events) {
      Fail("trace event count drifted between traced passes");
    }
    trace_events = t.events;
  }
  /// Every pass runs each unit of the workload once. A run's host timings
  /// are those of each unit's fastest half of its untraced passes (at
  /// least one): interference from the rest of the host only ever adds
  /// time, and the first, cold pass drops out. Exact counts and results
  /// are still checked on every pass.
  void AddUnitPass(int unit, bool traced, double secs, Figures&& unit_f) {
    if (!traced) unit_passes[unit].push_back(UnitPass{secs, std::move(unit_f)});
  }
  /// Fold the kept passes into `f`, once the timed loop is over.
  void AppendFastestHalf() {
    for (auto& [unit, passes] : unit_passes) {
      std::sort(passes.begin(), passes.end(),
                [](const UnitPass& a, const UnitPass& b) {
                  return a.secs < b.secs;
                });
      const size_t keep = std::max<size_t>(1, passes.size() / 2);
      for (size_t i = 0; i < keep; ++i) f.Append(passes[i].f);
    }
    unit_passes.clear();
  }
  /// Timed passes alternate untraced/traced in a --trace 1 run.
  bool TracedPass(int pass) const { return args.trace && pass % 2 == 1; }
  /// Whether to start pass number `pass` of a loop that began at `t0`: the
  /// loop ends at the pass boundary nearest to --seconds, judged by the
  /// mean wall time of the passes so far. Every run makes at least
  /// kMinPasses passes: the exactness check needs a repeat, the timings
  /// need a choice beyond the cold first pass, and a trace run needs a
  /// pass of each kind.
  static constexpr int kMinPasses = 3;
  bool TimeLeft(int64_t t0, int pass) const {
    if (pass < kMinPasses) return true;
    const double elapsed = static_cast<double>(NowNs() - t0) * 1e-9;
    return elapsed + 0.5 * elapsed / pass < args.seconds;
  }
};

sim::Topology* Topo() {
  static sim::Topology topo = sim::Topology::PaperServer();
  return &topo;
}

engine::ExecutionPolicy HybridDepth1() {
  engine::ExecutionPolicy p = engine::ExecutionPolicy::ForConfig(
      *Topo(), engine::EngineConfig::kProteusHybrid);
  p.async = engine::AsyncOptions::Depth(1);
  return p;
}

/// bench_serve's tiered serving policy.
engine::ExecutionPolicy ServingPolicy() {
  engine::ExecutionPolicy p = HybridDepth1();
  p.scheduling = engine::SchedulingPolicy::kSlaTiered;
  p.serve.max_inflight = 8;
  p.serve.aging_boost_s = 120.0;
  p.serve.shed_on_deadline = true;
  return p;
}

engine::ExecutionPolicy FairSharePolicy() {
  engine::ExecutionPolicy p = HybridDepth1();
  p.scheduling = engine::SchedulingPolicy::kFairShare;
  return p;
}

/// Each replay workload runs this many independent 1000-query traces per
/// pass, trace j from workload seed TraceSeed(seed, j). One trace's fuzz
/// pool moves the host cost per query by tens of percent from seed to
/// seed; the run-level figures average over the traces. batch_fairshare,
/// whose traces differ less and whose set-up is slower, runs half as many
/// and so twice the passes in the same time.
constexpr int kServeTraces = 8;
constexpr int kBatchTraces = 4;

uint64_t TraceSeed(uint64_t seed, int j) {
  return seed + 1000003ULL * static_cast<uint64_t>(j);
}

/// bench_serve's 1000-query replay; untiered drops tiers and deadlines.
serve::WorkloadOptions ReplayOptions(uint64_t seed, bool tiered) {
  serve::WorkloadOptions wo;
  wo.num_queries = 1000;
  wo.seed = seed;
  wo.arrival_rate_qps = 4.0;
  wo.fuzz_pool = 16;
  wo.fuzz_fraction = 0.6;
  if (tiered) {
    wo.tier_weights = {1.0, 2.0, 5.0};
    wo.tier_deadline_s = {5.0, 10.0, 12.0};
  } else {
    wo.tier_weights = {1.0};
  }
  return wo;
}

std::vector<serve::WorkloadQuery> Generate(queries::TpchContext* ctx,
                                           uint64_t seed, bool tiered) {
  auto gen = serve::GenerateWorkload(ctx, ReplayOptions(seed, tiered));
  HAPE_CHECK(gen.ok()) << gen.status().ToString();
  return std::move(gen.value());
}

constexpr double kReplaySf = 0.003;

/// Tables of the replay workloads (fixed table seed: the workload seed
/// drives the request trace only, as in bench_serve).
std::unique_ptr<queries::TpchContext> ReplayTables() {
  auto ctx = std::make_unique<queries::TpchContext>();
  ctx->topo = Topo();
  ctx->sf_actual = kReplaySf;
  ctx->sf_nominal = 100.0;
  HAPE_CHECK(queries::PrepareTpch(ctx.get()).ok());
  return ctx;
}

/// References for the distinct statements of a generated trace: each
/// statement (keyed by its DumpPlan fingerprint) loaded, optimized and
/// run alone under `policy` on a fresh engine; TPC-H statements are also
/// checked against a scalar reference.
struct StatementRefs {
  std::vector<std::string> fingerprints;  ///< distinct, first-seen order
  std::vector<Groups> results;            ///< per distinct statement
  std::vector<int> of_query;              ///< query index -> statement
  std::vector<size_t> first_query;        ///< statement -> first query
  std::vector<std::string> labels;        ///< per query
};

StatementRefs BuildRefs(Run* run, queries::TpchContext* ctx,
                        const std::vector<serve::WorkloadQuery>& trace,
                        const engine::ExecutionPolicy& policy) {
  StatementRefs refs;
  std::map<std::string, int> index;
  engine::Engine dumper(ctx->topo);
  for (size_t i = 0; i < trace.size(); ++i) {
    auto fp = dumper.DumpPlan(trace[i].plan);
    HAPE_CHECK(fp.ok()) << fp.status().ToString();
    auto [it, fresh] = index.emplace(
        fp.value(), static_cast<int>(refs.fingerprints.size()));
    if (fresh) {
      refs.fingerprints.push_back(fp.value());
      refs.first_query.push_back(i);
    }
    refs.of_query.push_back(it->second);
    refs.labels.push_back(trace[i].opts.label);
  }
  std::map<RefFn, Groups> tpch_refs;
  for (size_t s = 0; s < refs.fingerprints.size(); ++s) {
    ctx->topo->Reset();
    engine::Engine eng(ctx->topo);
    Groups groups;
    auto loaded = eng.LoadPlan(refs.fingerprints[s], ctx->catalog);
    bool ok = loaded.ok() && !loaded.value().aggs.empty();
    if (ok) ok = eng.Optimize(&loaded.value().plan, policy).ok();
    if (ok) ok = eng.Run(&loaded.value().plan, policy).ok();
    if (ok) groups = loaded.value().agg().result();
    const std::string& label = refs.labels[refs.first_query[s]];
    if (!ok) {
      run->Fail("standalone run of statement " + label + " failed");
    } else if (RefFn ref = TpchRefForLabel(label)) {
      auto it = tpch_refs.find(ref);
      if (it == tpch_refs.end()) {
        it = tpch_refs.emplace(ref, ref(*ctx).groups).first;
      }
      if (!NearGroups(it->second, groups)) {
        run->Fail("statement " + label + " disagrees with its RefQ");
      } else if (ref == RefQ9AllMatches && !run->q9_noted &&
                 !NearGroups(queries::RefQ9(*ctx).groups, groups)) {
        run->q9_noted = true;
        std::printf("note: %s matches the all-matches Q9 reference but "
                    "not RefQ9 (partsupp keys repeat at this scale)\n",
                    label.c_str());
      }
    }
    refs.results.push_back(std::move(groups));
  }
  ctx->topo->Reset();
  return refs;
}

void ProbeStatements(Run* run, queries::TpchContext* ctx,
                     const std::vector<const engine::QueryPlan*>& plans,
                     const engine::ExecutionPolicy& policy, bool optimize,
                     ProbeTimes* out) {
  constexpr int kReps = 3;
  for (int rep = 0; rep < kReps; ++rep) {
    for (size_t s = 0; s < plans.size(); ++s) {
      ctx->topo->Reset();
      engine::Engine eng(ctx->topo);
      Span probe(&run->spans, "bench.probe", static_cast<int>(s));
      Span dump(&run->spans, "engine.DumpPlan", static_cast<int>(s));
      auto doc = eng.DumpPlan(*plans[s]);
      out->dump_us.Add(dump.Stop() * 1e6);
      HAPE_CHECK(doc.ok()) << doc.status().ToString();
      Span load(&run->spans, "engine.LoadPlan", static_cast<int>(s));
      auto loaded = eng.LoadPlan(doc.value(), ctx->catalog);
      out->load_us.Add(load.Stop() * 1e6);
      HAPE_CHECK(loaded.ok()) << loaded.status().ToString();
      lint::LintContext lc;
      lc.topo = ctx->topo;
      lc.catalog = &ctx->catalog;
      lc.policy = &policy;
      Span lint_span(&run->spans, "lint.LintPlan", static_cast<int>(s));
      const lint::LintReport report =
          lint::LintPlan(loaded.value().plan, lc);
      out->lint_us.Add(lint_span.Stop() * 1e6);
      if (report.has_errors()) run->Fail("lint error on a probed plan");
      if (optimize) {
        Span opt(&run->spans, "opt.Optimize", static_cast<int>(s));
        auto o = eng.Optimize(&loaded.value().plan, policy);
        out->optimize_ms.Add(opt.Stop() * 1e3);
        if (!o.ok()) run->Fail("probe Optimize failed");
      }
    }
  }
  ctx->topo->Reset();
}

/// Service probe for workloads without a serving loop: every statement of
/// `plans` goes through a fresh QueryService twice (a cache miss, then a
/// hit), and one Run drains them. Returns the schedule.
engine::ScheduleStats ServiceProbe(
    Run* run, queries::TpchContext* ctx,
    const std::vector<const engine::QueryPlan*>& plans) {
  Figures& f = run->f;
  ctx->topo->Reset();
  engine::Engine eng(ctx->topo);
  serve::QueryService service(&eng, &ctx->catalog, ServingPolicy());
  for (int rep = 0; rep < 2; ++rep) {
    for (size_t s = 0; s < plans.size(); ++s) {
      Span sub(&run->spans, "serve.Submit", static_cast<int>(s));
      auto t = service.Submit(*plans[s], engine::SubmitOptions{});
      const double us = sub.Stop() * 1e6;
      if (!t.ok()) {
        run->Fail("probe Submit: " + t.status().ToString());
        continue;
      }
      (t.value().cache_hit ? f.submit_hit_us : f.submit_miss_us).Add(us);
    }
  }
  Span run_span(&run->spans, "serve.Run");
  auto stats = service.Run();
  const double secs = run_span.Stop();
  f.serve_run_s.Add(secs);
  f.run_all_ms.Add(secs * 1e3);
  HAPE_CHECK(stats.ok()) << stats.status().ToString();
  ctx->topo->Reset();
  return std::move(stats.value());
}

/// The TPC-H suite, with the scalar reference each query is checked
/// against at the unique-key scales tpch_solo runs.
struct SoloQuery {
  const char* name;
  queries::BuildFn build;
  RefFn ref;
};

constexpr SoloQuery kSoloQueries[] = {
    {"Q1", queries::BuildQ1Plan, queries::RefQ1},
    {"Q3", queries::BuildQ3Plan, queries::RefQ3},
    {"Q5", queries::BuildQ5Plan, queries::RefQ5},
    {"Q6", queries::BuildQ6Plan, queries::RefQ6},
    {"Q9", queries::BuildQ9Plan, queries::RefQ9}};
constexpr size_t kSoloCount = std::size(kSoloQueries);

/// Engine::Run probe of the TPC-H suite on `ctx`'s tables, for workloads
/// that run TPC-H statements only inside a schedule.
void TpchRunProbe(Run* run, queries::TpchContext* ctx) {
  const engine::ExecutionPolicy policy = HybridDepth1();
  engine::Engine eng(ctx->topo);
  constexpr int kReps = 3;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const SoloQuery& q : kSoloQueries) {
      ctx->topo->Reset();
      auto built = q.build(ctx);
      HAPE_CHECK(built.ok()) << built.status().ToString();
      HAPE_CHECK(eng.Optimize(&built.value().plan, policy).ok());
      Span span(&run->spans, "engine.Run");
      const bool ok = eng.Run(&built.value().plan, policy).ok();
      run->f.run_ms[q.name].Add(span.Stop() * 1e3);
      if (!ok) run->Fail(std::string("probe Run of ") + q.name + " failed");
    }
  }
  ctx->topo->Reset();
}

/// Simulated figures of a finished schedule, into the exact counts.
void AddScheduleExact(const engine::ScheduleStats& s, Exact* e) {
  (*e)["sim.makespan_s"] += s.makespan;
  (*e)["sim.completed"] += static_cast<double>(s.completed);
  (*e)["sim.shed"] += static_cast<double>(s.shed);
  (*e)["sim.cancelled"] += static_cast<double>(s.cancelled);
  (*e)["sim.deadline_exceeded"] += static_cast<double>(s.deadline_exceeded);
  double& peak = (*e)["sim.peak_resident_bytes"];
  peak = std::max(peak, static_cast<double>(s.peak_resident_bytes));
  double finish_sum = 0;
  for (const engine::QueryRunStats& q : s.queries) finish_sum += q.finish;
  (*e)["sim.finish_sum_s"] += finish_sum;
}

bool MissedDeadline(const engine::QueryRunStats& q) {
  return q.outcome != engine::QueryOutcome::kCompleted ||
         (q.deadline_s > 0 && q.finish > q.deadline_s);
}

// ---- serve_replay --------------------------------------------------------

/// bench_serve's tiered replay at seed 17 (1000 queries).
constexpr uint64_t kPinnedSeed = 17;

/// bench_serve's printed figures for seed 17, to their printed precision.
void CheckPinnedReplay(Run* run, const engine::ScheduleStats& st,
                       const serve::PlanCache::Stats& cache) {
  HAPE_CHECK(!st.tiers.empty());
  if (st.completed != 976 || std::abs(st.makespan - 267.74) > 0.005 ||
      std::abs(st.tiers[0].queue_p95 - 1.2246) > 0.00005 ||
      std::abs(cache.hit_rate() - 0.979) > 0.0005) {
    run->failed += st.queries.size();
    run->Fail("seed 17 replay differs from bench_serve's tiered figures");
  }
}

/// One replay of `trace` through a fresh engine and QueryService, added
/// to the pass totals `pass`.
void ReplayOnce(Run* run, queries::TpchContext* ctx,
                const std::vector<serve::WorkloadQuery>& trace,
                const StatementRefs& refs, int key, bool traced,
                const engine::ExecutionPolicy& policy, PassTotals* pass) {
  Figures f;
  const size_t n = trace.size();
  ctx->topo->Reset();
  engine::Engine eng(ctx->topo);
  if (traced) eng.SetTraceOptions(obs::TraceOptions{true});
  serve::QueryService service(&eng, &ctx->catalog, policy);
  const codegen::KernelCounterSnapshot k0 = codegen::KernelCounters();
  Span replay(&run->spans, "bench.replay", key);
  std::vector<serve::QueryService::Ticket> tickets(n);
  std::vector<char> submitted(n, 0);
  std::vector<int64_t> submit_start(n, 0);
  for (size_t i = 0; i < n; ++i) {
    Span s(&run->spans, "serve.Submit", static_cast<int>(i));
    submit_start[i] = s.start_ns();
    auto t = service.Submit(trace[i].plan, trace[i].opts);
    const double us = s.Stop() * 1e6;
    f.submit_us.Add(us);
    ++run->attempted;
    if (!t.ok()) {
      ++run->failed;
      run->Fail("Submit: " + t.status().ToString());
      continue;
    }
    submitted[i] = 1;
    tickets[i] = t.value();
    (t.value().cache_hit ? f.submit_hit_us : f.submit_miss_us).Add(us);
  }
  Span run_span(&run->spans, "serve.Run");
  auto stats = service.Run();
  const double run_secs = run_span.Stop();
  f.serve_run_s.Add(run_secs);
  f.run_all_ms.Add(run_secs * 1e3);
  HAPE_CHECK(stats.ok()) << stats.status().ToString();
  const engine::ScheduleStats& st = stats.value();
  std::vector<const engine::QueryRunStats*> by_id(n, nullptr);
  for (const engine::QueryRunStats& q : st.queries) {
    if (q.id >= 0 && static_cast<size_t>(q.id) < n) by_id[q.id] = &q;
  }
  std::vector<Groups> got(n);
  std::vector<int64_t> read_end(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (!submitted[i] || by_id[tickets[i].id] == nullptr ||
        !by_id[tickets[i].id]->completed()) {
      continue;
    }
    Span rd(&run->spans, "engine.AggHandle.result", static_cast<int>(i));
    got[i] = tickets[i].agg.result();
    rd.Stop();
    read_end[i] = NowNs();
  }
  f.timed_s += static_cast<double>(NowNs() - submit_start[0]) * 1e-9;
  f.completed += static_cast<double>(st.completed);
  if (traced) {
    Span dump(&run->spans, "obs.DumpTrace");
    const std::string chrome = eng.DumpTrace();
    pass->events += static_cast<double>(eng.tracer().num_events());
  }
  const double replay_s = replay.Stop();
  pass->secs += replay_s;
  pass->exec_s += run_secs;

  // Checks (untimed): every completed result equals the standalone run
  // of its statement; every count repeats on every pass.
  uint64_t missed = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!submitted[i]) continue;
    const engine::QueryRunStats* q = by_id[tickets[i].id];
    if (q == nullptr) {
      ++run->failed;
      run->Fail("query missing from the schedule");
      continue;
    }
    if (MissedDeadline(*q)) ++missed;
    if (!q->completed()) continue;
    if (q->tier == 0) pass->tier0_latency.Add(q->makespan_s());
    f.query_ms.Add(static_cast<double>(read_end[i] - submit_start[i]) * 1e-6);
    if (got[i] != refs.results[refs.of_query[i]]) {
      ++run->failed;
      run->Fail("result of " + refs.labels[i] +
                " differs from its standalone run");
    }
  }
  Exact e;
  AddEngineCounters(eng.metrics(), &e);
  AddKernelDelta(k0, codegen::KernelCounters(), &e);
  AddScheduleExact(st, &e);
  e["sim.deadline_missed"] = static_cast<double>(missed);
  HAPE_CHECK(!st.tiers.empty() && st.tiers[0].tier == 0);
  e["sim.tier0_queue_p95_s"] = st.tiers[0].queue_p95;
  e["sim.tier0_latency_p95_s"] = st.tiers[0].makespan_p95;
  run->CheckExact(key, e, n);
  Merge(e, &pass->exact);
  run->AddUnitPass(key, traced, replay_s, std::move(f));
  if (key == 0 && run->args.seed == kPinnedSeed && !run->have_exact) {
    CheckPinnedReplay(run, st, service.cache_stats());
  }
}

void RunServeReplay(Run* run) {
  const engine::ExecutionPolicy policy = ServingPolicy();
  std::unique_ptr<queries::TpchContext> ctx;
  std::vector<StatementRefs> refs;
  for (int j = 0; j < kServeTraces; ++j) {
    ctx.reset();
    const int64_t t0 = NowNs();
    ctx = ReplayTables();
    const std::vector<serve::WorkloadQuery> trace =
        Generate(ctx.get(), TraceSeed(run->args.seed, j), true);
    run->setup_s.Add(static_cast<double>(NowNs() - t0) * 1e-9);
    refs.push_back(BuildRefs(run, ctx.get(), trace, policy));
  }
  run->f.traces = kServeTraces;
  run->f.queries_per_pass = kServeTraces * 1000.0;

  const int64_t t_loop = NowNs();
  for (int pass = 0; run->TimeLeft(t_loop, pass); ++pass) {
    const bool traced = run->TracedPass(pass);
    run->spans.on = traced;
    PassTotals totals;
    for (int j = 0; j < kServeTraces; ++j) {
      // Traces are regenerated (untimed) rather than kept: their plans
      // hold scan packets, and eight of them would dominate memory.
      const std::vector<serve::WorkloadQuery> trace =
          Generate(ctx.get(), TraceSeed(run->args.seed, j), true);
      ReplayOnce(run, ctx.get(), trace, refs[j], j, traced, policy, &totals);
    }
    run->EndPass(traced, totals);
  }
  run->AppendFastestHalf();
  if (!run->args.trace) return;
  run->spans.on = true;
  for (int j = 0; j < kServeTraces; ++j) {
    const std::vector<serve::WorkloadQuery> trace =
        Generate(ctx.get(), TraceSeed(run->args.seed, j), true);
    std::vector<const engine::QueryPlan*> plans;
    for (size_t q : refs[j].first_query) plans.push_back(&trace[q].plan);
    ProbeStatements(run, ctx.get(), plans, policy, /*optimize=*/true,
                    &run->probes);
  }
  run->f.optimize_ms = run->probes.optimize_ms;
  TpchRunProbe(run, ctx.get());
}

// ---- batch_fairshare -----------------------------------------------------

constexpr size_t kBatch = 16;

/// One batch trace after set-up: the distinct optimized plan documents,
/// the document each query runs, and the references.
struct BatchTrace {
  std::vector<std::string> docs;
  std::vector<int> doc_of;
  StatementRefs refs;
};

/// One pass over `bt`: batches of kBatch loaded plans submitted into a
/// fresh Engine and drained with RunAll, added to the pass totals `pass`.
void BatchOnce(Run* run, queries::TpchContext* ctx, const BatchTrace& bt,
               int key, bool traced, const engine::ExecutionPolicy& policy,
               PassTotals* pass) {
  const size_t n = bt.doc_of.size();
  const codegen::KernelCounterSnapshot k0 = codegen::KernelCounters();
  Exact e;
  Samples queue, latency;
  double run_all_s = 0;
  for (size_t b0 = 0; b0 < n; b0 += kBatch) {
    const size_t b1 = std::min(n, b0 + kBatch);
    const int batch = static_cast<int>(b0 / kBatch);
    Figures f;
    ctx->topo->Reset();
    engine::Engine eng(ctx->topo);
    if (traced) eng.SetTraceOptions(obs::TraceOptions{true});
    std::vector<engine::AggHandle> aggs;
    std::vector<int64_t> start;
    Span batch_span(&run->spans, "bench.batch", batch);
    for (size_t i = b0; i < b1; ++i) {
      Span s(&run->spans, "bench.submit", static_cast<int>(i));
      start.push_back(s.start_ns());
      Span load(&run->spans, "engine.LoadPlan", static_cast<int>(i));
      auto loaded = eng.LoadPlan(bt.docs[bt.doc_of[i]], ctx->catalog);
      load.Stop();
      HAPE_CHECK(loaded.ok()) << loaded.status().ToString();
      aggs.push_back(loaded.value().agg());
      engine::SubmitOptions so;
      so.label = bt.refs.labels[i];
      Span sub(&run->spans, "engine.Submit", static_cast<int>(i));
      eng.Submit(std::move(loaded.value().plan), so);
      sub.Stop();
      f.submit_us.Add(s.Stop() * 1e6);
      ++run->attempted;
    }
    Span ra(&run->spans, "engine.RunAll", batch);
    auto stats = eng.RunAll(policy);
    const double ra_s = ra.Stop();
    run_all_s += ra_s;
    f.run_all_ms.Add(ra_s * 1e3);
    HAPE_CHECK(stats.ok()) << stats.status().ToString();
    const engine::ScheduleStats& st = stats.value();
    std::vector<Groups> got(b1 - b0);
    for (size_t i = b0; i < b1; ++i) {
      Span rd(&run->spans, "engine.AggHandle.result", static_cast<int>(i));
      got[i - b0] = aggs[i - b0].result();
      rd.Stop();
      f.query_ms.Add(static_cast<double>(NowNs() - start[i - b0]) * 1e-6);
    }
    if (traced) {
      Span dump(&run->spans, "obs.DumpTrace");
      const std::string chrome = eng.DumpTrace();
      pass->events += static_cast<double>(eng.tracer().num_events());
    }
    const double batch_s = batch_span.Stop();
    pass->secs += batch_s;
    f.completed += static_cast<double>(st.completed);
    f.timed_s += ra_s;
    // Units are batches: trace `key`'s batch `batch`.
    run->AddUnitPass(key * static_cast<int>(n) + batch, traced, batch_s,
                     std::move(f));

    // Checks (untimed).
    for (const engine::QueryRunStats& q : st.queries) {
      const size_t i = b0 + static_cast<size_t>(q.id);
      if (q.id < 0 || i >= b1 || !q.completed()) {
        ++run->failed;
        run->Fail("batch query did not complete");
        continue;
      }
      queue.Add(q.queueing_delay_s());
      latency.Add(q.makespan_s());
      pass->tier0_latency.Add(q.makespan_s());
      if (got[i - b0] != bt.refs.results[bt.refs.of_query[i]]) {
        ++run->failed;
        run->Fail("result of " + bt.refs.labels[i] +
                  " differs from its standalone run");
      }
    }
    AddEngineCounters(eng.metrics(), &e);
    AddScheduleExact(st, &e);
  }
  AddKernelDelta(k0, codegen::KernelCounters(), &e);
  e["sim.tier0_queue_p95_s"] = queue.Quantile(0.95);
  e["sim.tier0_latency_p95_s"] = latency.Quantile(0.95);
  run->CheckExact(key, e, n);
  Merge(e, &pass->exact);
  pass->exec_s += run_all_s;
}

void RunBatchFairshare(Run* run) {
  const engine::ExecutionPolicy policy = FairSharePolicy();
  std::unique_ptr<queries::TpchContext> ctx;
  std::vector<BatchTrace> traces(kBatchTraces);
  for (int j = 0; j < kBatchTraces; ++j) {
    BatchTrace& bt = traces[j];
    ctx.reset();
    const int64_t t0 = NowNs();
    ctx = ReplayTables();
    const std::vector<serve::WorkloadQuery> trace =
        Generate(ctx.get(), TraceSeed(run->args.seed, j), false);
    // One optimizer engine for the whole mixed stream, in trace order, on
    // the service's miss path (fingerprint -> LoadPlan -> Optimize).
    engine::Engine opt_engine(ctx->topo);
    std::map<std::string, int> doc_index;
    for (const serve::WorkloadQuery& q : trace) {
      auto loaded = opt_engine.LoadPlan(opt_engine.DumpPlan(q.plan).value(),
                                        ctx->catalog);
      HAPE_CHECK(loaded.ok()) << loaded.status().ToString();
      const int64_t o0 = NowNs();
      auto opt = opt_engine.Optimize(&loaded.value().plan, policy);
      run->f.optimize_ms.Add(static_cast<double>(NowNs() - o0) * 1e-6);
      HAPE_CHECK(opt.ok()) << opt.status().ToString();
      auto doc = opt_engine.DumpPlan(loaded.value().plan);
      HAPE_CHECK(doc.ok()) << doc.status().ToString();
      auto [it, fresh] = doc_index.emplace(
          std::move(doc.value()), static_cast<int>(bt.docs.size()));
      if (fresh) bt.docs.push_back(it->first);
      bt.doc_of.push_back(it->second);
    }
    run->setup_s.Add(static_cast<double>(NowNs() - t0) * 1e-9);
    bt.refs = BuildRefs(run, ctx.get(), trace, policy);
  }
  run->f.traces = kBatchTraces;
  run->f.queries_per_pass = kBatchTraces * 1000.0;

  const int64_t t_loop = NowNs();
  for (int pass = 0; run->TimeLeft(t_loop, pass); ++pass) {
    const bool traced = run->TracedPass(pass);
    run->spans.on = traced;
    PassTotals totals;
    for (int j = 0; j < kBatchTraces; ++j) {
      BatchOnce(run, ctx.get(), traces[j], j, traced, policy, &totals);
    }
    run->EndPass(traced, totals);
  }
  run->AppendFastestHalf();
  if (!run->args.trace) return;
  run->spans.on = true;
  for (int j = 0; j < kBatchTraces; ++j) {
    const std::vector<serve::WorkloadQuery> trace =
        Generate(ctx.get(), TraceSeed(run->args.seed, j), false);
    std::vector<const engine::QueryPlan*> plans;
    for (size_t q : traces[j].refs.first_query) {
      plans.push_back(&trace[q].plan);
    }
    ProbeStatements(run, ctx.get(), plans, policy, /*optimize=*/false,
                    &run->probes);
    if (j == 0) ServiceProbe(run, ctx.get(), plans);
  }
  TpchRunProbe(run, ctx.get());
}

// ---- tpch_solo -----------------------------------------------------------

constexpr double kSoloSf = 0.2;
/// tpch_solo repeats its set-up this many times; setup_s is the median.
constexpr int kSetupReps = 3;

void RunTpchSolo(Run* run) {
  const engine::ExecutionPolicy policy = HybridDepth1();
  std::unique_ptr<queries::TpchContext> ctx;
  std::unique_ptr<engine::Engine> eng;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    eng.reset();
    ctx.reset();
    const int64_t t0 = NowNs();
    ctx = std::make_unique<queries::TpchContext>();
    ctx->topo = Topo();
    ctx->sf_actual = kSoloSf;
    ctx->sf_nominal = 100.0;
    HAPE_CHECK(queries::PrepareTpch(ctx.get(), run->args.seed).ok());
    eng = std::make_unique<engine::Engine>(ctx->topo);
    // Warm the engine's table-statistics cache: the first Optimize of a
    // table scans it.
    for (const SoloQuery& q : kSoloQueries) {
      auto built = q.build(ctx.get());
      HAPE_CHECK(built.ok()) << built.status().ToString();
      HAPE_CHECK(eng->Optimize(&built.value().plan, policy).ok());
    }
    run->setup_s.Add(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  std::vector<Groups> refs;
  for (const SoloQuery& q : kSoloQueries) refs.push_back(q.ref(*ctx).groups);
  run->f.queries_per_pass = kSoloCount;

  std::vector<Groups> first(kSoloCount);
  int qid = 0;
  const int64_t t_loop = NowNs();
  for (int pass = 0; run->TimeLeft(t_loop, pass); ++pass) {
    const bool traced = run->TracedPass(pass);
    run->spans.on = traced;
    if (traced) eng->SetTraceOptions(obs::TraceOptions{true});
    // Per-pass counts on the long-lived engine (nothing holds instrument
    // pointers across calls, so clearing is safe).
    eng->metrics().Clear();
    const codegen::KernelCounterSnapshot k0 = codegen::KernelCounters();
    PassTotals totals;
    Exact& e = totals.exact;
    for (size_t k = 0; k < kSoloCount; ++k, ++qid) {
      const SoloQuery& sq = kSoloQueries[k];
      Figures f;
      ctx->topo->Reset();
      Span query(&run->spans, "bench.query", qid);
      Span prep(&run->spans, "bench.submit", qid);
      Span build(&run->spans, "queries.BuildPlan", qid);
      auto built = sq.build(ctx.get());
      build.Stop();
      HAPE_CHECK(built.ok()) << built.status().ToString();
      Span opt(&run->spans, "opt.Optimize", qid);
      auto o = eng->Optimize(&built.value().plan, policy);
      f.optimize_ms.Add(opt.Stop() * 1e3);
      HAPE_CHECK(o.ok()) << o.status().ToString();
      f.submit_us.Add(prep.Stop() * 1e6);
      Span run_span(&run->spans, "engine.Run", qid);
      auto stats = eng->Run(&built.value().plan, policy);
      const double run_s = run_span.Stop();
      Groups got;
      if (stats.ok()) {
        Span rd(&run->spans, "engine.AggHandle.result", qid);
        got = built.value().agg.result();
      }
      const double q_s = query.Stop();
      ++run->attempted;
      f.query_ms.Add(q_s * 1e3);
      f.run_ms[sq.name].Add(run_s * 1e3);
      f.timed_s += q_s;
      if (stats.ok()) f.completed += 1;
      run->AddUnitPass(static_cast<int>(k), traced, q_s, std::move(f));
      totals.secs += q_s;
      totals.exec_s += run_s;
      if (!stats.ok()) {
        ++run->failed;
        run->Fail(std::string(sq.name) + ": " + stats.status().ToString());
        continue;
      }
      // Checks (untimed): the scalar reference, and bit-identical results
      // on every pass.
      if (pass == 0) first[k] = got;
      if (!NearGroups(refs[k], got) || got != first[k]) {
        ++run->failed;
        run->Fail(std::string(sq.name) +
                  " result differs from RefQ or from the first pass");
      }
      e["sim.makespan_s"] += stats.value().finish;
      e[std::string("sim.finish_s.") + sq.name] = stats.value().finish;
      totals.tier0_latency.Add(stats.value().finish);
    }
    if (traced) {
      Span dump(&run->spans, "obs.DumpTrace");
      const std::string chrome = eng->DumpTrace();
      totals.events = static_cast<double>(eng->tracer().num_events());
      totals.secs += dump.Stop();
      eng->tracer().Clear();
      eng->SetTraceOptions(obs::TraceOptions{false});
    }
    AddEngineCounters(eng->metrics(), &e);
    AddKernelDelta(k0, codegen::KernelCounters(), &e);
    e["sim.tier0_latency_p95_s"] = totals.tier0_latency.Quantile(0.95);
    run->CheckExact(0, e, kSoloCount);
    run->EndPass(traced, totals);
  }
  run->AppendFastestHalf();
  if (!run->args.trace) return;
  run->spans.on = true;
  std::vector<queries::BuiltQuery> built;
  std::vector<const engine::QueryPlan*> plans;
  for (const SoloQuery& q : kSoloQueries) {
    built.push_back(std::move(q.build(ctx.get()).value()));
  }
  for (const queries::BuiltQuery& b : built) plans.push_back(&b.plan);
  ProbeStatements(run, ctx.get(), plans, policy, /*optimize=*/false,
                  &run->probes);
  // No scheduler runs in the timed loop; the scheduler's simulated
  // figures come from the service probe's schedule.
  const engine::ScheduleStats st = ServiceProbe(run, ctx.get(), plans);
  HAPE_CHECK(!st.tiers.empty());
  run->exact["sim.tier0_queue_p95_s"] = st.tiers[0].queue_p95;
  run->exact["sim.peak_resident_bytes"] =
      static_cast<double>(st.peak_resident_bytes);
}

// ---- metrics ---------------------------------------------------------------

void ReportEndToEnd(const Run& run, Report* r) {
  const Figures& f = run.f;
  const Exact& e = run.exact;
  r->Add("setup_s", run.setup_s.Median(), "s", run.setup_s.n());
  r->Add("queries_per_s", Ratio(f.completed, f.timed_s), "1/s",
         static_cast<size_t>(f.completed));
  r->Add("submit_us_p50", f.submit_us.Median(), "us", f.submit_us.n());
  r->Add("submit_us_p95", f.submit_us.Quantile(0.95), "us", f.submit_us.n());
  r->Add("query_ms_p50", f.query_ms.Median(), "ms", f.query_ms.n());
  r->Add("query_ms_p90", f.query_ms.Quantile(0.90), "ms", f.query_ms.n());
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  r->Add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB", 1);
  const size_t traces = static_cast<size_t>(f.traces);
  r->Add("sim_makespan_s", Get(e, "sim.makespan_s") / f.traces, "sim_s",
         traces);
  r->Add("sim_tier0_latency_p95_s", run.tier0_latency.Quantile(0.95), "sim_s",
         run.tier0_latency.n());
  r->Add("deadline_met_frac",
         1.0 - Get(e, "sim.deadline_missed") / f.queries_per_pass, "ratio",
         static_cast<size_t>(f.queries_per_pass));
}

void ReportPerLayer(const Run& run, Report* r) {
  const Figures& f = run.f;
  const Exact& e = run.exact;
  const ProbeTimes& p = run.probes;
  const size_t passes = run.pass_untraced_s.n() + run.pass_traced_s.n();
  r->Add("serve.submit_hit_us_p50", f.submit_hit_us.Median(), "us",
         f.submit_hit_us.n());
  r->Add("serve.submit_miss_us_p50", f.submit_miss_us.Median(), "us",
         f.submit_miss_us.n());
  const size_t hits = f.submit_hit_us.n();
  const size_t submits = hits + f.submit_miss_us.n();
  r->Add("serve.plan_cache_hit_ratio",
         Ratio(static_cast<double>(hits), static_cast<double>(submits)),
         "ratio", submits);
  r->Add("serve.run_s", f.serve_run_s.Median(), "s", f.serve_run_s.n());
  r->Add("engine.dump_plan_us", p.dump_us.Median(), "us", p.dump_us.n());
  r->Add("engine.load_plan_us", p.load_us.Median(), "us", p.load_us.n());
  r->Add("lint.plan_us", p.lint_us.Median(), "us", p.lint_us.n());
  r->Add("lint.runs_per_query",
         (Get(e, "lint.runs") + Get(e, "serve.lint.runs")) /
             f.queries_per_pass,
         "count", passes);
  const Samples& opt = f.optimize_ms.n() > 0 ? f.optimize_ms : p.optimize_ms;
  r->Add("opt.optimize_ms", opt.Median(), "ms", opt.n());
  for (const SoloQuery& q : kSoloQueries) {
    auto it = f.run_ms.find(q.name);
    const Samples none;
    const Samples& s = it == f.run_ms.end() ? none : it->second;
    r->Add(std::string("engine.run_ms.") + q.name, s.Median(), "ms", s.n());
  }
  r->Add("engine.run_all_ms_per_batch", f.run_all_ms.Median(), "ms",
         f.run_all_ms.n());
  const double exec_s = f.exec_s.Median();
  const double pipelines = Get(e, "engine.pipelines");
  r->Add("engine.host_us_per_pipeline", Ratio(exec_s * 1e6, pipelines), "us",
         f.exec_s.n());
  for (const char* n : {"engine.pipelines", "engine.packets",
                        "engine.mem_moves", "scheduler.admissions",
                        "scheduler.preemptions", "scheduler.admission_waves",
                        "codegen.filter_rows", "codegen.hashed_keys",
                        "codegen.probed_keys", "codegen.bulk_inserts"}) {
    r->Add(n, Get(e, n), "count", passes);
  }
  const double hc = Get(e, "codegen.hash_cache_hits");
  r->Add("codegen.hash_cache_hit_ratio",
         Ratio(hc, hc + Get(e, "codegen.hash_cache_misses")), "ratio", passes);
  const double rows = Get(e, "codegen.filter_rows") +
                      Get(e, "codegen.probed_keys") +
                      Get(e, "codegen.bulk_inserts");
  r->Add("codegen.host_ns_per_row", Ratio(exec_s * 1e9, rows), "ns",
         f.exec_s.n());
  const double busy = Get(e, "engine.transfer_busy_s");
  r->Add("sim.transfer_busy_s", busy, "sim_s", passes);
  r->Add("sim.transfer_hidden_ratio",
         Ratio(busy - Get(e, "engine.transfer_exposed_s"), busy), "ratio",
         passes);
  r->Add("sim.moved_bytes", Get(e, "engine.moved_bytes"), "bytes", passes);
  r->Add("sim.peak_resident_bytes", Get(e, "sim.peak_resident_bytes"),
         "bytes", passes);
  r->Add("sim_tier0_queue_p95_s", Get(e, "sim.tier0_queue_p95_s") / f.traces,
         "sim_s", static_cast<size_t>(f.traces));
  r->Add("obs.trace_events", std::max(0.0, run.trace_events), "count",
         run.pass_traced_s.n());
  r->Add("obs.trace_overhead_ratio",
         Ratio(run.pass_traced_s.Median(), run.pass_untraced_s.Median()),
         "ratio", passes);
}

// ---- output ----------------------------------------------------------------

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Spans plus each module's self time (span time not covered by child
/// spans), written once at the end of a traced run.
void WriteSpans(const Run& run) {
  const std::vector<SpanRecord>& spans = run.spans.spans();
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, int64_t> self_ns;
  std::map<std::string, uint64_t> calls;
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string layer = spans[i].name.substr(0, spans[i].name.find('.'));
    self_ns[layer] += spans[i].end_ns - spans[i].start_ns - child_ns[i];
    ++calls[layer];
  }
  std::filesystem::create_directories(run.args.out_dir);
  const std::string path = run.args.out_dir + "/spans_" + run.args.workload +
                           "_seed" + std::to_string(run.args.seed) + ".json";
  JsonWriter w;
  w.BeginObject();
  w.Key("workload");
  w.String(run.args.workload);
  w.Key("seed");
  w.Uint(run.args.seed);
  w.Key("layer_self_s");
  w.BeginObject();
  for (const auto& [layer, ns] : self_ns) {
    w.Key(layer);
    w.Double(static_cast<double>(ns) * 1e-9);
  }
  w.EndObject();
  w.Key("layer_spans");
  w.BeginObject();
  for (const auto& [layer, c] : calls) {
    w.Key(layer);
    w.Uint(c);
  }
  w.EndObject();
  w.Key("spans");
  w.BeginArray();
  const int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const SpanRecord& s : spans) {
    w.BeginObject();
    w.Key("name");
    w.String(s.name);
    w.Key("start_ns");
    w.Int(s.start_ns - t0);
    w.Key("end_ns");
    w.Int(s.end_ns - t0);
    w.Key("parent");
    w.Int(s.parent);
    w.Key("query");
    w.Int(s.query);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  std::ofstream out(path);
  out << w.str() << "\n";
  std::printf("spans: %zu written to %s\nlayer self time (s):", spans.size(),
              path.c_str());
  for (const auto& [layer, ns] : self_ns) {
    std::printf(" %s=%.4f", layer.c_str(), static_cast<double>(ns) * 1e-9);
  }
  std::printf("\n");
}

void PrintConditions(const Args& args) {
  const codegen::DataPlaneConfig& dp = codegen::DataPlane();
  std::printf(
      "{\"conditions\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %s, \"trace\": %d, \"data_plane\": \"%s\", "
      "\"packet_threads\": %d, \"avx2\": %s, \"build_type\": \"%s\", "
      "\"nproc\": %ld}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      Num(args.seconds).c_str(), args.trace ? 1 : 0,
      dp.mode == codegen::KernelMode::kVectorized ? "vectorized" : "scalar",
      dp.packet_threads, codegen::Avx2Available() ? "true" : "false",
      HAPE_BENCH_BUILD_TYPE, sysconf(_SC_NPROCESSORS_ONLN));
}

int Usage() {
  std::fprintf(stderr,
               "usage: hape_perfbench --workload "
               "serve_replay|tpch_solo|batch_fairshare [--seed N] "
               "[--seconds S] [--trace 0|1] [--out DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  Args& a = run.args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      a.trace = std::strtol(v, &end, 10) != 0;
    } else if (k == "--out") {
      a.out_dir = v;
    } else {
      return Usage();
    }
    if (end != nullptr && *end != '\0') return Usage();
  }
  if (argc % 2 == 0 || !(a.seconds > 0)) return Usage();
  if (a.workload != "serve_replay" && a.workload != "tpch_solo" &&
      a.workload != "batch_fairshare") {
    return Usage();
  }

  codegen::SetDataPlane(
      codegen::DataPlaneConfig{codegen::KernelMode::kVectorized,
                               kPacketThreads});
  PrintConditions(a);

  if (a.workload == "serve_replay") {
    RunServeReplay(&run);
  } else if (a.workload == "tpch_solo") {
    RunTpchSolo(&run);
  } else {
    RunBatchFairshare(&run);
  }
  Report report;
  if (a.trace) {
    ReportPerLayer(run, &report);
    WriteSpans(run);
  } else {
    ReportEndToEnd(run, &report);
  }

  const bool correct = run.checks_ok && run.failed == 0;
  std::printf("%-32s %22s %-6s %8s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : report.metrics()) {
    std::printf("%-32s %22.6f %-6s %8zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("failed_frac %.6f (%llu of %llu queries)\n",
              Ratio(static_cast<double>(run.failed),
                    static_cast<double>(run.attempted)),
              static_cast<unsigned long long>(run.failed),
              static_cast<unsigned long long>(run.attempted));
  for (const std::string& note : run.notes) {
    std::printf("FAILED: %s\n", note.c_str());
  }
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(run.attempted);
  line += ", \"failed\": " + std::to_string(run.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics().size(); ++i) {
    const Metric& m = report.metrics()[i];
    if (i > 0) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + Num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
