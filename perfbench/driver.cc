// In-process half of the benchmark (see perfbench/README.md). run.py builds
// and drives it; every subcommand prints one JSON object on stdout.
//
//   perfbench_driver generate --seed N --out FILE
//       Paper-size scenario (12k + 12k documents) drawn from seed N.
//   perfbench_driver batch --workload adaptive|scan --seconds S
//                          --trace 0|1 --jobs SPEC [--scenario FILE]
//       Builds the workbench kSetups times (set-up time), computes a
//       reference for every distinct job, then runs the job list in whole
//       cycles for at least S seconds without a pool, comparing every job
//       to its reference. --trace 1 adds one instrumented cycle and one
//       pooled cycle and prints per-layer measurements.
//   perfbench_driver serve --scenario FILE --requests FILE --stream FILE
//                          --deck N --seconds S --out FILE
//       The serve_inproc workload: a single-worker JoinService in process,
//       one request in flight, one untimed deck of warm-up, timed responses
//       written to FILE.
//   perfbench_driver serve-probe --scenario FILE --requests FILE
//       Per-layer measurements of the serving path, in process: request
//       parsing, frame codec, plan-cache lookups, JoinService::Serve
//       latency per request template, and a decorated execution of every
//       template, checked against the service's own response.
//
// Layer timings come from outside the library: decorators around
// Extractor and DocumentClassifier passed in through JoinResources, the
// obs::Tracer spans and metrics counters the library already records, and
// direct timing of public functions.

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "classifier/document_classifier.h"
#include "common/thread_pool.h"
#include "extraction/extraction_cache.h"
#include "extraction/extractor.h"
#include "fault/fault_plan.h"
#include "harness/workbench.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/adaptive_executor.h"
#include "optimizer/optimizer.h"
#include "retrieval/retrieval_strategy.h"
#include "service/join_service.h"
#include "service/plan_cache.h"
#include "service/service_protocol.h"
#include "service/worker_channel.h"
#include "textdb/corpus_generator.h"
#include "textdb/corpus_io.h"

using namespace iejoin;  // NOLINT — benchmark binary

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetups = 3;  // set-ups per run; run.py reports their median

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Strict flag parsing: every subcommand names the flags it accepts; anything
// else is a usage error (exit 2), never silently ignored.
// ---------------------------------------------------------------------------

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver generate --seed N --out FILE\n"
               "       perfbench_driver batch --workload adaptive|scan --seconds S\n"
               "           --trace 0|1 --jobs SPEC [--scenario FILE]\n"
               "       perfbench_driver serve --scenario FILE --requests FILE\n"
               "           --stream FILE --deck N --seconds S --out FILE\n"
               "       perfbench_driver serve-probe --scenario FILE --requests FILE\n");
  return 2;
}

bool ParseFlags(int argc, char** argv, const std::set<std::string>& allowed,
                std::map<std::string, std::string>* flags) {
  for (int i = 2; i < argc; i += 2) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || i + 1 >= argc) return false;
    const std::string key = arg.substr(2);
    if (allowed.count(key) == 0 || flags->count(key) != 0) return false;
    (*flags)[key] = argv[i + 1];
  }
  for (const std::string& key : allowed) {
    if (key != "scenario" && flags->count(key) == 0) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Process measurements.
// ---------------------------------------------------------------------------

double ProcessCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

/// User+sys CPU of every thread of this process except the main thread —
/// in the batch workloads those are exactly the pool's threads.
double NonMainThreadCpuSeconds() {
  const long ticks = ::sysconf(_SC_CLK_TCK);
  const std::string self = std::to_string(::getpid());
  double total = 0.0;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return 0.0;
  while (dirent* entry = ::readdir(dir)) {
    const std::string tid = entry->d_name;
    if (tid == "." || tid == ".." || tid == self) continue;
    std::ifstream in("/proc/self/task/" + tid + "/stat");
    std::string line;
    std::getline(in, line);
    const size_t close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream fields(line.substr(close + 2));
    std::string field;
    double utime = 0.0, stime = 0.0;
    for (int index = 3; fields >> field; ++index) {
      if (index == 14) utime = std::atof(field.c_str());
      if (index == 15) {
        stime = std::atof(field.c_str());
        break;
      }
    }
    total += (utime + stime) / static_cast<double>(ticks);
  }
  ::closedir(dir);
  return total;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Layer decorators, passed in through JoinResources.
// ---------------------------------------------------------------------------

struct LayerClock {
  std::atomic<int64_t> calls{0};
  std::atomic<int64_t> nanos{0};
  std::atomic<int64_t> accepts{0};

  void Add(Clock::time_point start, bool accepted) {
    calls.fetch_add(1, std::memory_order_relaxed);
    nanos.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - start)
                        .count(),
                    std::memory_order_relaxed);
    if (accepted) accepts.fetch_add(1, std::memory_order_relaxed);
  }
  double MeanUs() const {
    const int64_t n = calls.load();
    return n > 0 ? static_cast<double>(nanos.load()) / 1e3 / static_cast<double>(n)
                 : 0.0;
  }
};

class TimedExtractor : public Extractor {
 public:
  TimedExtractor(std::unique_ptr<Extractor> owned, const Extractor* base,
                 LayerClock* clock)
      : owned_(std::move(owned)), base_(base), clock_(clock) {}

  ExtractionBatch Process(const Document& doc) const override {
    const auto start = Clock::now();
    ExtractionBatch batch = base_->Process(doc);
    clock_->Add(start, false);
    return batch;
  }
  double theta() const override { return base_->theta(); }
  std::unique_ptr<Extractor> WithTheta(double theta) const override {
    std::unique_ptr<Extractor> tuned = base_->WithTheta(theta);
    const Extractor* raw = tuned.get();
    return std::make_unique<TimedExtractor>(std::move(tuned), raw, clock_);
  }
  const std::string& relation_name() const override {
    return base_->relation_name();
  }

 private:
  std::unique_ptr<Extractor> owned_;
  const Extractor* base_;
  LayerClock* clock_;
};

class TimedClassifier : public DocumentClassifier {
 public:
  TimedClassifier(const DocumentClassifier* base, LayerClock* clock)
      : base_(base), clock_(clock) {}
  bool IsLikelyGood(const Document& doc) const override {
    const auto start = Clock::now();
    const bool good = base_->IsLikelyGood(doc);
    clock_->Add(start, good);
    return good;
  }

 private:
  const DocumentClassifier* base_;
  LayerClock* clock_;
};

/// A workbench's resources with every extractor and classifier timed.
struct Decorated {
  LayerClock extract;
  LayerClock classify;
  std::unique_ptr<TimedExtractor> extractors[2];
  std::unique_ptr<TimedClassifier> classifiers[2];
  JoinResources resources;

  explicit Decorated(const Workbench& bench) : resources(bench.resources()) {
    extractors[0] = std::make_unique<TimedExtractor>(nullptr, resources.extractor1, &extract);
    extractors[1] = std::make_unique<TimedExtractor>(nullptr, resources.extractor2, &extract);
    classifiers[0] = std::make_unique<TimedClassifier>(resources.classifier1, &classify);
    classifiers[1] = std::make_unique<TimedClassifier>(resources.classifier2, &classify);
    resources.extractor1 = extractors[0].get();
    resources.extractor2 = extractors[1].get();
    resources.classifier1 = classifiers[0].get();
    resources.classifier2 = classifiers[1].get();
  }
};

// ---------------------------------------------------------------------------
// Span and counter aggregation.
// ---------------------------------------------------------------------------

struct SpanTotals {
  std::map<std::string, double> ms;
  std::map<std::string, int64_t> count;
  int64_t probe_docs = 0;  // side.retrieve "new_docs" attributes
  size_t dropped = 0;

  void Add(const obs::Tracer& tracer) {
    for (const obs::SpanRecord& span : tracer.spans()) {
      if (!span.ended) continue;
      ms[span.name] += (span.wall_end_us - span.wall_start_us) / 1e3;
      ++count[span.name];
      if (span.name == "side.retrieve") {
        for (const auto& [key, value] : span.attributes) {
          if (key == "new_docs") probe_docs += std::atoll(value.c_str());
        }
      }
    }
    dropped += tracer.dropped_spans();
  }
  double Ms(const std::string& name) const {
    const auto it = ms.find(name);
    return it == ms.end() ? 0.0 : it->second;
  }
  int64_t Count(const std::string& name) const {
    const auto it = count.find(name);
    return it == count.end() ? 0 : it->second;
  }
};

int64_t CounterSum(const obs::MetricsSnapshot& snapshot,
                   std::initializer_list<const char*> names) {
  int64_t total = 0;
  for (const char* name : names) {
    const auto it = snapshot.counters.find(name);
    if (it != snapshot.counters.end()) total += it->second;
  }
  return total;
}

/// Trajectory totals a traced cycle accumulates across its operations.
struct WorkTotals {
  int64_t ops = 0;
  int64_t docs_retrieved = 0;
  int64_t docs_processed = 0;
  int64_t queries = 0;
  int64_t extracted = 0;
  int64_t ops_retried = 0;
  int64_t ops_failed = 0;
  int64_t docs_dropped = 0;

  void Add(const TrajectoryPoint& p) {
    docs_retrieved += p.docs_retrieved1 + p.docs_retrieved2;
    docs_processed += p.docs_processed1 + p.docs_processed2;
    queries += p.queries1 + p.queries2;
    extracted += p.extracted1 + p.extracted2;
    ops_retried += p.ops_retried1 + p.ops_retried2;
    ops_failed += p.ops_failed1 + p.ops_failed2;
    docs_dropped += p.docs_dropped1 + p.docs_dropped2;
  }
};

// ---------------------------------------------------------------------------
// JSON output.
// ---------------------------------------------------------------------------

class JsonOut {
 public:
  JsonOut& Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return Raw(key, buf);
  }
  JsonOut& List(const std::string& key, const std::vector<double>& values) {
    std::string out = "[";
    char buf[64];
    for (size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "", values[i]);
      out += buf;
    }
    return Raw(key, out + "]");
  }
  JsonOut& Raw(const std::string& key, const std::string& raw) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + key + "\":") + raw;
    return *this;
  }
  std::string Close() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// Micro-probes of public layer functions.
// ---------------------------------------------------------------------------

/// Mean microseconds per RetrievalStrategy::Next over up to `limit` pulls on
/// side 1, for one strategy kind (FS runs the workbench's classifier).
double RetrievalNextUs(const Workbench& bench, RetrievalStrategyKind kind,
                       int64_t limit) {
  const JoinResources res = bench.resources();
  auto strategy = CreateRetrievalStrategy(kind, res.database1, res.classifier1,
                                          res.queries1);
  if (!strategy.ok()) return 0.0;
  ExecutionMeter meter(res.costs1);
  int64_t pulls = 0;
  const auto start = Clock::now();
  while (pulls < limit && (*strategy)->Next(&meter).has_value()) ++pulls;
  return pulls > 0 ? Since(start) * 1e6 / static_cast<double>(pulls) : 0.0;
}

struct CacheProbe {
  double lookup_us = 0.0;
  double insert_us = 0.0;
};

/// Mean microseconds per ExtractionCache Insert and (hit) Lookup on a
/// private cache filled with `docs` real side-1 extraction batches.
CacheProbe ProbeExtractionCache(const Workbench& bench, int64_t docs) {
  const std::unique_ptr<Extractor> extractor = bench.extractor1().WithTheta(0.4);
  std::vector<ExtractionBatch> batches;
  const int64_t n = std::min<int64_t>(docs, bench.database1().size());
  for (int64_t d = 0; d < n; ++d) {
    batches.push_back(extractor->Process(bench.database1().ScanDocument(d)));
  }
  ExtractionCache cache;
  CacheProbe probe;
  auto start = Clock::now();
  for (int64_t d = 0; d < n; ++d) {
    cache.Insert({0, static_cast<DocId>(d), 0.4}, batches[static_cast<size_t>(d)]);
  }
  probe.insert_us = n > 0 ? Since(start) * 1e6 / static_cast<double>(n) : 0.0;
  int64_t found = 0;
  start = Clock::now();
  for (int rep = 0; rep < 4; ++rep) {
    for (int64_t d = 0; d < n; ++d) {
      if (cache.Lookup({0, static_cast<DocId>(d), 0.4}).has_value()) ++found;
    }
  }
  probe.lookup_us = found > 0 ? Since(start) * 1e6 / static_cast<double>(found) : 0.0;
  return probe;
}

void EmitRetrievalProbes(const Workbench& bench, JsonOut* out) {
  out->Num("retrieval.next_us.sc",
           RetrievalNextUs(bench, RetrievalStrategyKind::kScan, 4000));
  out->Num("retrieval.next_us.fs",
           RetrievalNextUs(bench, RetrievalStrategyKind::kFilteredScan, 4000));
  out->Num("retrieval.next_us.aqg",
           RetrievalNextUs(bench, RetrievalStrategyKind::kAutomaticQueryGeneration,
                           4000));
  const CacheProbe cache = ProbeExtractionCache(bench, 2000);
  out->Num("extraction.cache.lookup_us", cache.lookup_us);
  out->Num("extraction.cache.insert_us", cache.insert_us);
}

/// Set-up stages of one workbench build: the scenario load the caller
/// timed, plus the workbench.* spans.
void EmitHarnessLayers(const obs::Tracer& setup_tracer, double load_s, JsonOut* out) {
  out->Num("harness.load_scenario_s", load_s);
  for (const char* stage : {"generate_corpora", "train_classifiers",
                            "characterize_knobs", "learn_queries"}) {
    double total = 0.0;
    for (const obs::SpanRecord& span : setup_tracer.spans()) {
      if (span.name == std::string("workbench.") + stage) {
        total += (span.wall_end_us - span.wall_start_us) / 1e6;
      }
    }
    out->Num(std::string("harness.") + stage + "_s", total);
  }
}

/// Per-layer numbers shared by every traced execution (spans, decorators,
/// registry counters, trajectory totals).
void EmitExecutionLayers(const SpanTotals& spans, const Decorated& dec,
                         const obs::MetricsSnapshot& snapshot,
                         const WorkTotals& work, JsonOut* out) {
  const double ops = std::max<int64_t>(work.ops, 1);
  const double join_ms = spans.Ms("join.run");
  out->Num("join.run_ms", join_ms / ops);
  out->Num("join.driver_self_ms",
           (join_ms - spans.Ms("side.extract") - spans.Ms("side.retrieve")) / ops);
  out->Num("join.tuples_per_doc",
           work.docs_processed > 0 ? static_cast<double>(work.extracted) /
                                         static_cast<double>(work.docs_processed)
                                   : 0.0);
  out->Num("retrieval.useful_ratio",
           work.docs_retrieved > 0 ? static_cast<double>(work.docs_processed) /
                                         static_cast<double>(work.docs_retrieved)
                                   : 0.0);
  out->Num("classifier.score_us", dec.classify.MeanUs());
  out->Num("classifier.calls_per_op", static_cast<double>(dec.classify.calls.load()) / ops);
  out->Num("classifier.accept_ratio",
           dec.classify.calls.load() > 0
               ? static_cast<double>(dec.classify.accepts.load()) /
                     static_cast<double>(dec.classify.calls.load())
               : 0.0);
  out->Num("extraction.process_us", dec.extract.MeanUs());
  out->Num("extraction.process_calls", static_cast<double>(dec.extract.calls.load()) / ops);
  out->Num("querygen.queries_per_op", static_cast<double>(work.queries) / ops);
  const int64_t probes = spans.Count("side.retrieve");
  out->Num("querygen.docs_per_query",
           probes > 0 ? static_cast<double>(spans.probe_docs) / static_cast<double>(probes)
                      : 0.0);
  const int64_t hits = CounterSum(snapshot, {"side1.cache_hits", "side2.cache_hits"});
  const int64_t misses =
      CounterSum(snapshot, {"side1.cache_misses", "side2.cache_misses"});
  out->Num("extraction.cache.hit_ratio",
           hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                             : 0.0);
  out->Num("extraction.cache.evictions",
           static_cast<double>(CounterSum(
               snapshot, {"side1.cache_evictions", "side2.cache_evictions"})) /
               ops);
  out->Num("fault.ops_retried", static_cast<double>(work.ops_retried) / ops);
  out->Num("fault.ops_failed", static_cast<double>(work.ops_failed) / ops);
  out->Num("fault.docs_dropped", static_cast<double>(work.docs_dropped) / ops);
  out->Num("trace.dropped_spans", static_cast<double>(spans.dropped));
}

// ---------------------------------------------------------------------------
// `generate`
// ---------------------------------------------------------------------------

int CmdGenerate(const std::map<std::string, std::string>& flags) {
  ScenarioSpec spec = ScenarioSpec::PaperLike();
  spec.seed = std::strtoull(flags.at("seed").c_str(), nullptr, 10);
  auto scenario = CorpusGenerator(spec).Generate();
  if (!scenario.ok()) {
    std::fprintf(stderr, "generate: %s\n", scenario.status().ToString().c_str());
    return 1;
  }
  const Status saved = SaveScenario(*scenario, flags.at("out"));
  if (!saved.ok()) {
    std::fprintf(stderr, "generate: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("{\"docs1\":%lld,\"docs2\":%lld}\n",
              static_cast<long long>(scenario->corpus1->size()),
              static_cast<long long>(scenario->corpus2->size()));
  return 0;
}

// ---------------------------------------------------------------------------
// `batch`
// ---------------------------------------------------------------------------

/// One batch operation. Adaptive jobs are (τ_g, τ_b) requirements the
/// optimizer plans for; scan jobs are fixed plans run to exhaustion whose
/// final output is checked against (τ_g, τ_b).
struct Job {
  JoinAlgorithmKind algorithm = JoinAlgorithmKind::kIndependent;
  double theta1 = 0.4;
  double theta2 = 0.4;
  QualityRequirement requirement;
};

/// What a job produced: the fields compared against the reference.
struct Outcome {
  bool ok = false;
  std::string error;
  int64_t good = 0;
  int64_t bad = 0;
  double seconds = 0.0;
  bool requirement_met = false;
  std::string phases;  // adaptive: plan + simulated seconds per phase
  int64_t docs = 0;    // docs_processed1 + docs_processed2 over all phases
  int64_t switches = 0;

  bool SameAs(const Outcome& ref) const {
    return ok && ref.ok && good == ref.good && bad == ref.bad &&
           seconds == ref.seconds && requirement_met == ref.requirement_met &&
           phases == ref.phases;
  }
};

bool ParseJobs(const std::string& workload, const std::string& spec,
               std::vector<Job>* jobs) {
  std::stringstream items(spec);
  std::string item;
  while (std::getline(items, item, ',')) {
    std::vector<std::string> f;
    std::stringstream parts(item);
    std::string part;
    while (std::getline(parts, part, ':')) f.push_back(part);
    Job job;
    if (workload == "adaptive" && f.size() == 2) {
      job.requirement.min_good_tuples = std::atoll(f[0].c_str());
      job.requirement.max_bad_tuples = std::atoll(f[1].c_str());
    } else if (workload == "scan" && f.size() == 5) {
      if (f[0] == "idjn") {
        job.algorithm = JoinAlgorithmKind::kIndependent;
      } else if (f[0] == "oijn") {
        job.algorithm = JoinAlgorithmKind::kOuterInner;
      } else if (f[0] == "zgjn") {
        job.algorithm = JoinAlgorithmKind::kZigZag;
      } else {
        return false;
      }
      job.theta1 = std::atof(f[1].c_str());
      job.theta2 = std::atof(f[2].c_str());
      job.requirement.min_good_tuples = std::atoll(f[3].c_str());
      job.requirement.max_bad_tuples = std::atoll(f[4].c_str());
    } else {
      return false;
    }
    jobs->push_back(job);
  }
  return !jobs->empty();
}

/// Optional instrumentation for one execution.
struct Probes {
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
  WorkTotals* work = nullptr;
  double* inputs_ms = nullptr;
  double* choose_ms = nullptr;
};

/// `iejoin_cli optimize --execute` for one requirement: oracle inputs, plan
/// choice, adaptive execution. The cache is cleared first, as in a fresh
/// CLI process; `pool` null runs sequentially.
Outcome RunAdaptiveJob(const Workbench& bench, const JoinResources& resources,
                       const Job& job, ThreadPool* pool, ExtractionCache* cache,
                       const Probes& probes) {
  Outcome out;
  if (cache != nullptr) cache->Clear();
  auto start = Clock::now();
  auto inputs = bench.OracleOptimizerInputs(/*include_zgjn_pgfs=*/true);
  if (probes.inputs_ms != nullptr) *probes.inputs_ms += Since(start) * 1e3;
  if (!inputs.ok()) {
    out.error = inputs.status().ToString();
    return out;
  }
  inputs->pool = pool;
  inputs->metrics = probes.metrics;
  inputs->tracer = probes.tracer;
  start = Clock::now();
  const QualityAwareOptimizer optimizer(*inputs, PlanEnumerationOptions());
  auto choice = optimizer.ChoosePlan(job.requirement);
  if (probes.choose_ms != nullptr) *probes.choose_ms += Since(start) * 1e3;
  if (!choice.ok()) {
    out.error = choice.status().ToString();
    return out;
  }
  AdaptiveOptions adaptive;
  adaptive.requirement = job.requirement;
  adaptive.initial_plan = choice->plan;
  adaptive.metrics = probes.metrics;
  adaptive.tracer = probes.tracer;
  adaptive.pool = pool;
  adaptive.extraction_cache = cache;
  AdaptiveJoinExecutor executor(resources, *inputs, PlanEnumerationOptions());
  auto result = executor.Run(adaptive);
  if (!result.ok()) {
    out.error = result.status().ToString();
    return out;
  }
  out.ok = true;
  out.good = result->good_join_tuples;
  out.bad = result->bad_join_tuples;
  out.seconds = result->total_seconds;
  out.requirement_met = result->requirement_met;
  char buf[64];
  for (const AdaptivePhase& phase : result->phases) {
    std::snprintf(buf, sizeof(buf), "=%.17g;", phase.seconds);
    out.phases += phase.plan.Describe() + buf;
    out.docs += phase.end_point.docs_processed1 + phase.end_point.docs_processed2;
    if (probes.work != nullptr) probes.work->Add(phase.end_point);
  }
  out.switches = static_cast<int64_t>(result->phases.size()) - 1;
  return out;
}

/// One plan run to exhaustion (the trajectory figures' runs); the
/// requirement is only evaluated on the final output.
Outcome RunScanJob(const Workbench& bench, const JoinResources& resources,
                   const Job& job, ThreadPool* pool, const Probes& probes) {
  Outcome out;
  JoinPlanSpec plan;
  plan.algorithm = job.algorithm;
  plan.theta1 = job.theta1;
  plan.theta2 = job.theta2;
  auto executor = CreateJoinExecutor(plan, resources);
  if (!executor.ok()) {
    out.error = executor.status().ToString();
    return out;
  }
  JoinExecutionOptions options;
  options.stop_rule = StopRule::kExhaustion;
  options.requirement = job.requirement;
  options.pool = pool;
  options.metrics = probes.metrics;
  options.tracer = probes.tracer;
  if (plan.algorithm == JoinAlgorithmKind::kZigZag) {
    options.seed_values = bench.ZgjnSeeds(bench.config().zgjn_seed_count);
  }
  auto result = (*executor)->Run(options);
  if (!result.ok()) {
    out.error = result.status().ToString();
    return out;
  }
  const TrajectoryPoint& fp = result->final_point;
  out.ok = true;
  out.good = fp.good_join_tuples;
  out.bad = fp.bad_join_tuples;
  out.seconds = fp.seconds;
  out.requirement_met = result->requirement_met;
  out.docs = fp.docs_processed1 + fp.docs_processed2;
  if (probes.work != nullptr) probes.work->Add(fp);
  return out;
}

WorkbenchConfig ScanConfig() {
  // The bench_throughput shape: few documents, each heavy to extract.
  WorkbenchConfig config;
  ScenarioSpec spec = ScenarioSpec::Small();
  for (RelationSpec* rel : {&spec.relation1, &spec.relation2}) {
    rel->num_documents = 1500;
    rel->filler_sentences_per_doc = 60;
    rel->words_per_filler_sentence = 20;
    rel->context_words_per_mention = 12;
  }
  config.scenario = spec;
  config.snowball1.num_patterns = 24;
  config.snowball2.num_patterns = 24;
  return config;
}

int CmdBatch(const std::map<std::string, std::string>& flags) {
  const std::string workload = flags.at("workload");
  const bool adaptive = workload == "adaptive";
  if (!adaptive && workload != "scan") return Usage();
  if (adaptive && flags.count("scenario") == 0) return Usage();
  const double seconds = std::atof(flags.at("seconds").c_str());
  const bool trace = flags.at("trace") == "1";
  std::vector<Job> jobs;
  if (!ParseJobs(workload, flags.at("jobs"), &jobs)) return Usage();

  // --- Set-up, repeated: scenario load (adaptive) or generation (scan, as
  // part of Workbench::Create) plus the workbench build.
  std::vector<double> setup_s;
  double load_s = 0.0;
  obs::Tracer setup_tracer;
  std::unique_ptr<Workbench> bench;
  for (int k = 0; k < kSetups; ++k) {
    bench.reset();
    const bool last = k + 1 == kSetups;
    const auto start = Clock::now();
    Result<std::unique_ptr<Workbench>> built = Status::Internal("unbuilt");
    if (adaptive) {
      auto scenario = LoadScenario(flags.at("scenario"));
      if (!scenario.ok()) {
        std::fprintf(stderr, "load: %s\n", scenario.status().ToString().c_str());
        return 1;
      }
      if (last) load_s = Since(start);
      // What `iejoin_cli optimize` builds, without its pool: pooled wall
      // time does not repeat on a host with steal (perfbench/README.md).
      WorkbenchConfig config;
      config.extraction_cache = true;
      if (last && trace) config.tracer = &setup_tracer;
      built = Workbench::CreateForScenario(config, *std::move(scenario));
    } else {
      WorkbenchConfig config = ScanConfig();
      if (last && trace) config.tracer = &setup_tracer;
      built = Workbench::Create(config);
    }
    if (!built.ok()) {
      std::fprintf(stderr, "workbench: %s\n", built.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(Since(start));
    bench = std::move(built).value();
  }
  ExtractionCache* cache = bench->extraction_cache();
  const JoinResources plain = bench->resources();
  const auto run = [&](const Job& job, ThreadPool* with_pool, const JoinResources& res,
                       const Probes& probes) {
    return adaptive ? RunAdaptiveJob(*bench, res, job, with_pool, cache, probes)
                    : RunScanJob(*bench, res, job, with_pool, probes);
  };

  // --- Reference: every distinct job once, before the timed window.
  std::vector<Outcome> reference;
  for (const Job& job : jobs) reference.push_back(run(job, nullptr, plain, Probes()));

  // --- Timed: whole cycles over the job list until `seconds` have passed.
  // Per-cycle wall and CPU let run.py take medians over cycles, so a burst
  // of host contention moves one cycle instead of the whole run.
  std::vector<double> walls, cycle_s, cycle_cpu_s;
  int64_t failed = 0, docs = 0, met = 0;
  std::string first_error;
  const auto t0 = Clock::now();
  do {
    const auto cycle_start = Clock::now();
    const double cycle_cpu0 = ProcessCpuSeconds();
    for (size_t i = 0; i < jobs.size(); ++i) {
      const auto start = Clock::now();
      const Outcome out = run(jobs[i], nullptr, plain, Probes());
      walls.push_back(Since(start));
      if (!out.SameAs(reference[i])) {
        ++failed;
        if (first_error.empty()) {
          first_error = out.ok ? "job " + std::to_string(i) + " differs from reference"
                               : out.error;
        }
      }
      docs += out.docs;
      if (out.requirement_met) ++met;
    }
    cycle_s.push_back(Since(cycle_start));
    cycle_cpu_s.push_back(ProcessCpuSeconds() - cycle_cpu0);
  } while (Since(t0) < seconds);
  const double elapsed = Since(t0);
  if (!first_error.empty()) std::fprintf(stderr, "batch: %s\n", first_error.c_str());

  JsonOut out;
  out.List("setup_s", setup_s)
      .List("walls_s", walls)
      .List("cycle_s", cycle_s)
      .List("cycle_cpu_s", cycle_cpu_s)
      .Num("docs", static_cast<double>(docs))
      .Num("failed", static_cast<double>(failed))
      .Num("slo_met", static_cast<double>(met))
      .Num("rss_mb", PeakRssMb());

  if (trace) {
    // One instrumented cycle: tracer, registry, and timed decorators.
    SpanTotals spans;
    Decorated dec(*bench);
    obs::MetricsRegistry registry;
    WorkTotals work;
    double inputs_ms = 0.0, choose_ms = 0.0, traced_wall = 0.0;
    int64_t switches = 0, phases = 0;
    for (size_t i = 0; i < jobs.size(); ++i) {
      obs::Tracer tracer(size_t{1} << 22);
      Probes probes;
      probes.metrics = &registry;
      probes.tracer = &tracer;
      probes.work = &work;
      probes.inputs_ms = &inputs_ms;
      probes.choose_ms = &choose_ms;
      const auto start = Clock::now();
      const Outcome traced = run(jobs[i], nullptr, dec.resources, probes);
      const double wall = Since(start);
      traced_wall += wall;
      if (!traced.SameAs(reference[i])) {
        std::fprintf(stderr, "batch: traced job %zu differs from reference\n", i);
        return 1;
      }
      spans.Add(tracer);
      if (adaptive) {
        switches += traced.switches;
        phases += traced.switches + 1;
      }
    }
    work.ops = static_cast<int64_t>(jobs.size());
    const double n = static_cast<double>(jobs.size());
    const obs::MetricsSnapshot snapshot = registry.Snapshot();

    JsonOut layers;
    EmitHarnessLayers(setup_tracer, load_s, &layers);
    layers.Num("optimizer.inputs_ms", inputs_ms / n)
        .Num("optimizer.choose_ms", choose_ms / n)
        .Num("optimizer.plans_evaluated",
             static_cast<double>(CounterSum(snapshot, {"optimizer.plans_evaluated"})) / n)
        .Num("optimizer.adaptive.phases_per_job", static_cast<double>(phases) / n)
        .Num("optimizer.adaptive.switches_per_job", static_cast<double>(switches) / n)
        .Num("estimation.mle_ms", spans.Ms("estimate.mle") / n)
        .Num("estimation.mle_calls", static_cast<double>(spans.Count("estimate.mle")) / n)
        .Num("estimation.mle_share", spans.Ms("estimate.mle") / (traced_wall * 1e3));
    EmitExecutionLayers(spans, dec, snapshot, work, &layers);
    EmitRetrievalProbes(*bench, &layers);
    layers.Num("extraction.cache.bytes",
               cache != nullptr ? static_cast<double>(cache->bytes()) : 0.0);
    // join.pipeline.*: one extra cycle with a pool of hardware concurrency
    // - 1 threads (the CLI default), checked against the reference like
    // every other execution.
    const int32_t pipe_threads = std::max(1, ThreadPool::HardwareConcurrency() - 1);
    ThreadPool pipe_pool(pipe_threads);
    const double pipe_cpu0 = ProcessCpuSeconds();
    const double pipe_pool_cpu0 = NonMainThreadCpuSeconds();
    const auto pipe_start = Clock::now();
    for (size_t i = 0; i < jobs.size(); ++i) {
      if (!run(jobs[i], &pipe_pool, plain, Probes()).SameAs(reference[i])) {
        std::fprintf(stderr, "batch: pooled job %zu differs from reference\n", i);
        return 1;
      }
    }
    const double pipe_wall = Since(pipe_start);
    const double pipe_cpu = ProcessCpuSeconds() - pipe_cpu0;
    const double pipe_pool_cpu = NonMainThreadCpuSeconds() - pipe_pool_cpu0;
    layers.Num("join.pipeline.pool_busy_frac", pipe_pool_cpu / (pipe_wall * pipe_threads))
        .Num("join.pipeline.wall_over_cpu", pipe_cpu > 0.0 ? pipe_wall / pipe_cpu : 0.0)
        .Num("obs.tracing_overhead_frac",
             (traced_wall / n) / (elapsed / static_cast<double>(walls.size())) - 1.0);
    out.Raw("layers", layers.Close());
  }
  std::printf("%s\n", out.Close().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// `serve-probe`
// ---------------------------------------------------------------------------

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// JoinService::Serve latency for one request: call to respond callback.
double ServeMs(service::JoinService* svc, const std::string& line,
               std::string* response) {
  std::promise<std::string> done;
  std::future<std::string> got = done.get_future();
  const auto start = Clock::now();
  svc->Serve(line, [&done](std::string r) { done.set_value(std::move(r)); });
  *response = got.get();
  return Since(start) * 1e3;
}

/// Loads the scenario and builds the workbench as iejoin_server's
/// BuildWorkbench does: 64 MiB extraction cache, no pool.
Result<std::unique_ptr<Workbench>> BuildServerWorkbench(const std::string& path,
                                                        obs::Tracer* tracer,
                                                        double* load_s) {
  const auto start = Clock::now();
  IEJOIN_ASSIGN_OR_RETURN(JoinScenario scenario, LoadScenario(path));
  *load_s = Since(start);
  WorkbenchConfig config;
  config.extraction_cache = true;
  config.extraction_cache_bytes = int64_t{64} << 20;
  config.tracer = tracer;
  return Workbench::CreateForScenario(config, std::move(scenario));
}

/// The serve_inproc workload: a single-worker JoinService in this process,
/// one request in flight. The stream's first deck is untimed: it holds
/// every template, so it warms the extraction and plan caches. The rest is
/// served in whole decks until `seconds` have passed. Every timed response
/// is written to --out, one line each, for run.py to check.
int CmdServe(const std::map<std::string, std::string>& flags) {
  const std::vector<std::string> requests = ReadLines(flags.at("requests"));
  std::vector<size_t> stream;
  for (const std::string& line : ReadLines(flags.at("stream"))) {
    stream.push_back(static_cast<size_t>(std::atoll(line.c_str())));
  }
  const size_t deck = static_cast<size_t>(std::atoll(flags.at("deck").c_str()));
  const size_t warmup = deck;
  const double seconds = std::atof(flags.at("seconds").c_str());
  if (requests.empty() || deck == 0 || stream.size() < warmup + deck) return Usage();
  for (size_t t : stream) {
    if (t >= requests.size()) return Usage();
  }

  std::vector<double> setup_s;
  std::unique_ptr<Workbench> bench;
  for (int k = 0; k < kSetups; ++k) {
    bench.reset();
    double load_s = 0.0;
    const auto start = Clock::now();
    auto built = BuildServerWorkbench(flags.at("scenario"), nullptr, &load_s);
    if (!built.ok()) {
      std::fprintf(stderr, "workbench: %s\n", built.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(Since(start));
    bench = std::move(built).value();
  }
  service::ServiceConfig svc_config;
  svc_config.workers = 1;
  service::JoinService svc(bench.get(), svc_config);

  std::string response;
  for (size_t i = 0; i < warmup; ++i) ServeMs(&svc, requests[stream[i]], &response);

  std::ofstream out(flags.at("out"));
  std::vector<double> latency_ms, deck_s;
  const int64_t hits0 = svc.plan_cache().hits();
  const int64_t misses0 = svc.plan_cache().misses();
  const double cpu0 = ProcessCpuSeconds();
  const auto t0 = Clock::now();
  auto deck_start = t0;
  size_t i = warmup;
  while (i + deck <= stream.size() && (i == warmup || Since(t0) < seconds)) {
    for (const size_t end = i + deck; i < end; ++i) {
      latency_ms.push_back(ServeMs(&svc, requests[stream[i]], &response));
      out << response << "\n";
    }
    deck_s.push_back(Since(deck_start));
    deck_start = Clock::now();
  }
  const double elapsed = Since(t0);
  const double cpu = ProcessCpuSeconds() - cpu0;
  out.close();
  if (!out) {
    std::fprintf(stderr, "serve: cannot write %s\n", flags.at("out").c_str());
    return 1;
  }

  JsonOut result;
  result.List("setup_s", setup_s)
      .Num("warmup", static_cast<double>(warmup))
      .List("latency_ms", latency_ms)
      .List("deck_s", deck_s)
      .Num("elapsed_s", elapsed)
      .Num("cpu_s", cpu)
      .Num("plan_cache_hits", static_cast<double>(svc.plan_cache().hits() - hits0))
      .Num("plan_cache_misses", static_cast<double>(svc.plan_cache().misses() - misses0))
      .Num("rss_mb", PeakRssMb());
  std::printf("%s\n", result.Close().c_str());
  return 0;
}

int CmdServeProbe(const std::map<std::string, std::string>& flags) {
  const std::vector<std::string> requests = ReadLines(flags.at("requests"));
  if (requests.empty()) return Usage();

  obs::Tracer setup_tracer;
  double load_s = 0.0;
  auto built = BuildServerWorkbench(flags.at("scenario"), &setup_tracer, &load_s);
  if (!built.ok()) {
    std::fprintf(stderr, "workbench: %s\n", built.status().ToString().c_str());
    return 1;
  }
  const std::unique_ptr<Workbench> bench = std::move(built).value();

  JsonOut layers;
  EmitHarnessLayers(setup_tracer, load_s, &layers);

  // Request parsing + admission validation, as the supervisor runs it.
  constexpr int kReps = 50;
  auto start = Clock::now();
  int64_t parsed_ok = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const std::string& line : requests) {
      auto parsed = service::ParseServiceRequest(line);
      if (parsed.ok() && service::ValidateJoinRequest(*parsed).ok()) ++parsed_ok;
    }
  }
  layers.Num("service.parse_us",
             Since(start) * 1e6 / static_cast<double>(kReps * requests.size()));
  if (parsed_ok != static_cast<int64_t>(kReps * requests.size())) {
    std::fprintf(stderr, "serve-probe: a request template failed to parse\n");
    return 1;
  }

  // In-process single-worker service: cold pass, then the warm pass timed.
  service::ServiceConfig svc_config;
  svc_config.workers = 1;
  service::JoinService svc(bench.get(), svc_config);
  std::vector<std::string> responses(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) ServeMs(&svc, requests[i], &responses[i]);
  std::vector<double> inproc_ms;
  for (size_t i = 0; i < requests.size(); ++i) {
    std::string again;
    inproc_ms.push_back(ServeMs(&svc, requests[i], &again));
    if (again != responses[i]) {
      std::fprintf(stderr, "serve-probe: response %zu not reproducible\n", i);
      return 1;
    }
  }

  // Worker-channel framing of every response: encode, parse, CRC check.
  start = Clock::now();
  int64_t framed = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const std::string& response : responses) {
      const std::string header = service::EncodeFrameHeader(
          static_cast<uint8_t>(service::FrameType::kResponse), response);
      auto parsed = service::ParseFrameHeader(header);
      if (parsed.ok() && service::ValidateFramePayload(*parsed, response).ok()) ++framed;
    }
  }
  layers.Num("service.frame_us",
             Since(start) * 1e6 / static_cast<double>(kReps * responses.size()));
  if (framed != static_cast<int64_t>(kReps * responses.size())) {
    std::fprintf(stderr, "serve-probe: frame round trip failed\n");
    return 1;
  }

  // Plan-cache lookups over the optimize templates' keys.
  service::PlanCache plan_cache(64);
  std::vector<std::string> keys;
  for (const std::string& line : requests) {
    auto parsed = service::ParseServiceRequest(line);
    if (!parsed->optimize) continue;
    fault::FaultPlan faults;
    if (!parsed->faults.empty()) faults = *fault::ParseFaultPlan(parsed->faults);
    keys.push_back(service::PlanCacheKey(parsed->tau_good, parsed->tau_bad,
                                         parsed->faults.empty() ? nullptr : &faults));
    plan_cache.Insert(keys.back(), service::CachedPlanChoice());
  }
  start = Clock::now();
  int64_t lookups = 0;
  for (int rep = 0; rep < kReps * 20; ++rep) {
    for (const std::string& key : keys) lookups += plan_cache.Lookup(key).has_value();
  }
  layers.Num("service.plan_cache.lookup_us",
             lookups > 0 ? Since(start) * 1e6 / static_cast<double>(lookups) : 0.0);

  // Every template executed as JoinService::Execute runs it, warm cache:
  // once plain, then with tracer, registry, and timed extractor/classifier.
  // Each execution's status and final tuple counts must match the service's
  // own response to that template, so the layer figures stay the program's.
  SpanTotals spans;
  Decorated dec(*bench);
  obs::MetricsRegistry registry;
  WorkTotals work;
  double inputs_ms = 0.0, choose_ms = 0.0;
  int64_t optimized = 0;
  const auto execute_all = [&](bool traced) -> double {
    const auto pass_start = Clock::now();
    for (size_t i = 0; i < requests.size(); ++i) {
      const service::ServiceRequest request = *service::ParseServiceRequest(requests[i]);
      JoinExecutionOptions options;
      if (request.has_requirement) {
        options.stop_rule = StopRule::kOracleQuality;
        options.requirement.min_good_tuples = request.tau_good;
        options.requirement.max_bad_tuples = request.tau_bad;
      }
      fault::FaultPlan fault_plan;
      bool have_faults = false;
      if (!request.faults.empty()) {
        fault_plan = *fault::ParseFaultPlan(request.faults);
        have_faults = true;
      }
      if (request.deadline_seconds > 0.0) {
        fault_plan.deadline_seconds = request.deadline_seconds;
        have_faults = true;
      }
      if (request.has_seed) {
        fault_plan.seed = request.seed;
        have_faults = true;
      }
      if (have_faults) options.fault_plan = &fault_plan;
      obs::Tracer tracer(size_t{1} << 22);
      if (traced) {
        options.metrics = &registry;
        options.tracer = &tracer;
      }
      JoinPlanSpec plan;
      if (request.optimize) {
        auto step = Clock::now();
        auto inputs = bench->OracleOptimizerInputs(/*include_zgjn_pgfs=*/true);
        const double step_inputs_ms = Since(step) * 1e3;
        if (have_faults) inputs->fault_plan = &fault_plan;
        inputs->metrics = options.metrics;
        step = Clock::now();
        const QualityAwareOptimizer optimizer(*inputs, PlanEnumerationOptions{});
        auto choice = optimizer.ChoosePlan(options.requirement);
        if (!choice.ok()) return -1.0;
        if (traced) {
          ++optimized;
          inputs_ms += step_inputs_ms;
          choose_ms += Since(step) * 1e3;
        }
        plan = choice->plan;
      } else {
        plan = *service::PlanFromRequest(request);
      }
      auto executor = CreateJoinExecutor(plan, traced ? dec.resources : bench->resources());
      if (plan.algorithm == JoinAlgorithmKind::kZigZag) {
        options.seed_values = bench->ZgjnSeeds(bench->config().zgjn_seed_count);
      }
      options.extraction_cache = bench->extraction_cache();
      auto result = (*executor)->Run(options);
      if (!result.ok()) return -1.0;
      char expect[160];
      std::snprintf(expect, sizeof(expect), "\"good_tuples\":%lld,\"bad_tuples\":%lld,",
                    static_cast<long long>(result->final_point.good_join_tuples),
                    static_cast<long long>(result->final_point.bad_join_tuples));
      const std::string status =
          std::string("\"status\":\"") + (result->degraded ? "degraded" : "ok") + "\"";
      if (responses[i].find(status) == std::string::npos ||
          responses[i].find(expect) == std::string::npos) {
        std::fprintf(stderr, "serve-probe: template %zu executes to %s %s, service: %s\n",
                     i, status.c_str(), expect, responses[i].substr(0, 300).c_str());
        return -1.0;
      }
      if (traced) {
        work.Add(result->final_point);
        spans.Add(tracer);
      }
    }
    return Since(pass_start);
  };
  const double plain_s = execute_all(false);
  const double traced_s = execute_all(true);
  if (plain_s < 0.0 || traced_s < 0.0) {
    std::fprintf(stderr, "serve-probe: a template failed to execute or differs from the service\n");
    return 1;
  }
  layers.Num("obs.tracing_overhead_frac", traced_s / plain_s - 1.0);
  work.ops = static_cast<int64_t>(requests.size());
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  // Optimizer work per plan-cache miss; the relay run scales it by its share
  // of requests that miss.
  layers.Num("optimizer.inputs_ms", optimized > 0 ? inputs_ms / optimized : 0.0)
      .Num("optimizer.choose_ms", optimized > 0 ? choose_ms / optimized : 0.0)
      .Num("optimizer.plans_evaluated",
           optimized > 0 ? static_cast<double>(CounterSum(
                               snapshot, {"optimizer.plans_evaluated"})) /
                               static_cast<double>(optimized)
                         : 0.0);
  EmitExecutionLayers(spans, dec, snapshot, work, &layers);
  EmitRetrievalProbes(*bench, &layers);
  layers.Num("extraction.cache.bytes",
             static_cast<double>(bench->extraction_cache()->bytes()));

  JsonOut out;
  out.List("inproc_ms", inproc_ms).Raw("layers", layers.Close());
  std::printf("%s\n", out.Close().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  if (command == "generate") {
    if (!ParseFlags(argc, argv, {"seed", "out"}, &flags)) return Usage();
    return CmdGenerate(flags);
  }
  if (command == "batch") {
    if (!ParseFlags(argc, argv,
                    {"workload", "seconds", "trace", "jobs", "scenario"},
                    &flags)) {
      return Usage();
    }
    return CmdBatch(flags);
  }
  if (command == "serve") {
    if (!ParseFlags(argc, argv,
                    {"scenario", "requests", "stream", "deck", "seconds", "out"},
                    &flags) ||
        flags.count("scenario") == 0) {
      return Usage();
    }
    return CmdServe(flags);
  }
  if (command == "serve-probe") {
    if (!ParseFlags(argc, argv, {"scenario", "requests"}, &flags) ||
        flags.count("scenario") == 0) {
      return Usage();
    }
    return CmdServeProbe(flags);
  }
  return Usage();
}
