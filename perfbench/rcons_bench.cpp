// rcons_bench: runs one benchmark workload once, in this process, through the
// library's public API only, and prints one JSON object of raw measurements
// on stdout. perfbench/run.py starts a fresh process per execution, checks
// the guards, and turns the raw records into the reported metrics.
//
// Usage: rcons_bench --workload NAME [--seed N] [--trace-out FILE]
//
//   --workload    prove-plain | prove-sym | paper-table | smoke
//   --seed        permutes paper-table's task order (the exhaustive checks
//                 themselves are seed-independent)
//   --trace-out   install an obs::Session (metrics registry + tracer) in
//                 every CheckRequest and write its Chrome trace here
//
// Engine checks run with min(kMaxThreads, CPUs this process may use) workers.
//
// Every check, classification, minimize and replay is compared with the
// expectation pinned for it below; each mismatch is listed in "failures".
// Exit code 0 when the workload ran (mismatches included), 2 on bad usage or
// when the trace file cannot be written.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "check/minimize.hpp"
#include "check/scenario_spec.hpp"
#include "check/spec_system.hpp"
#include "hierarchy/levels.hpp"
#include "obs/session.hpp"
#include "sim/replay.hpp"
#include "typesys/zoo.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"

namespace {

using namespace rcons;
using Clock = std::chrono::steady_clock;

constexpr int kMaxThreads = 4;
// Set-up passes timed per execution; the execution's setup_s is the fastest,
// since other load on the host only ever adds time to a pass.
constexpr int kSetupReps = 31;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// One exhaustive check of a spec line through check::check (kAuto), with the
// verdict and exact visited count it must reproduce. `refute` adds
// check::minimize on the violation and sim::replay of the minimized schedule.
struct CheckTask {
  std::string spec;
  bool clean = true;
  std::uint64_t visited = 0;
  bool refute = false;
};

// One readable type classified by the hierarchy checkers up to `cap`, with
// the levels the paper gives it.
struct ClassifyTask {
  std::string type;
  int cap = 0;
  hierarchy::Level discerning;
  hierarchy::Level recording;
};

struct Task {
  std::optional<CheckTask> check;
  std::optional<ClassifyTask> classify;
};

Task check_task(std::string spec, bool clean, std::uint64_t visited, bool refute = false) {
  return Task{CheckTask{std::move(spec), clean, visited, refute}, std::nullopt};
}

Task classify_task(std::string type, int cap, hierarchy::Level discerning,
                   hierarchy::Level recording) {
  return Task{std::nullopt, ClassifyTask{std::move(type), cap, discerning, recording}};
}

constexpr hierarchy::Level exact(int level) { return hierarchy::Level{level, false}; }
constexpr hierarchy::Level at_least(int cap) { return hierarchy::Level{cap, true}; }

// The paper's characterization, recomputed: classify every readable zoo type
// (cap 6) and the Tn/Sn families for k = 5, 6, 7 (cap k + 1, so family levels
// are exact); verify Figure 2 at n = min(recording level, 4) under both crash
// models; refute Ruppert's halting tournament on Tn(k) at n = cons = k, where
// cons exceeds rcons. Every state space stays under the kAuto probe limit.
std::vector<Task> paper_table_tasks() {
  std::vector<Task> tasks;
  for (const char* type : {"register", "counter", "max-register"}) {
    tasks.push_back(classify_task(type, 6, exact(1), exact(1)));
  }
  for (const char* type : {"test-and-set", "fetch-and-increment", "swap"}) {
    tasks.push_back(classify_task(type, 6, exact(2), exact(1)));
  }
  for (const char* type : {"compare-and-swap", "sticky-bit", "consensus-object",
                           "readable-stack", "readable-queue"}) {
    tasks.push_back(classify_task(type, 6, at_least(6), at_least(6)));
  }
  for (int k = 5; k <= 7; ++k) {
    const std::string tn = "Tn(" + std::to_string(k) + ")";
    const std::string sn = "Sn(" + std::to_string(k) + ")";
    tasks.push_back(classify_task(tn, k + 1, exact(k), exact(k - 2)));
    tasks.push_back(classify_task(sn, k + 1, exact(k), exact(k)));
  }

  struct Verify {
    const char* type;
    int n;
    int budget;
    std::uint64_t visited_independent;
    std::uint64_t visited_simultaneous;
  };
  const Verify verify[] = {
      {"compare-and-swap", 4, 2, 16'771, 10'768},
      {"sticky-bit", 4, 2, 9'643, 6'756},
      {"consensus-object", 4, 2, 16'771, 10'768},
      {"readable-stack", 4, 1, 118'656, 72'285},
      {"readable-queue", 4, 1, 118'656, 72'285},
      {"Tn(5)", 3, 2, 5'589, 3'402},
      {"Tn(6)", 4, 2, 89'731, 41'640},
      {"Tn(7)", 4, 2, 74'879, 36'366},
      {"Sn(5)", 4, 2, 75'857, 35'457},
      {"Sn(6)", 4, 2, 75'857, 35'457},
      {"Sn(7)", 4, 2, 75'857, 35'457},
  };
  for (const Verify& v : verify) {
    const std::string base = std::string("type=") + v.type + " n=" + std::to_string(v.n) +
                             " budget=" + std::to_string(v.budget);
    tasks.push_back(check_task(base + " model=independent", true, v.visited_independent));
    tasks.push_back(check_task(base + " model=simultaneous", true, v.visited_simultaneous));
  }

  const std::uint64_t refute_visited[] = {74, 107, 127};
  for (int k = 5; k <= 7; ++k) {
    tasks.push_back(check_task("type=Tn(" + std::to_string(k) + ") n=" + std::to_string(k) +
                                   " model=independent budget=1 algo=halting",
                               false, refute_visited[k - 5], /*refute=*/true));
  }
  return tasks;
}

// A seconds-long subset for the harness self-test: one clean check, one
// refutation, one classification.
std::vector<Task> smoke_tasks() {
  return {
      check_task("type=Sn(3) n=3 model=independent budget=1", true, 3'202),
      check_task("type=Tn(4) n=4 model=independent budget=1 algo=halting", false, 58,
                 /*refute=*/true),
      classify_task("Tn(4)", 5, exact(4), exact(2)),
  };
}

std::optional<std::vector<Task>> workload_tasks(const std::string& name) {
  if (name == "prove-plain") {
    return std::vector<Task>{
        check_task("type=Sn(5) n=5 model=independent budget=2", true, 1'058'114)};
  }
  if (name == "prove-sym") {
    return std::vector<Task>{check_task(
        "type=Sn(7) n=7 model=independent budget=2 symmetry=on", true, 1'364'348)};
  }
  if (name == "paper-table") return paper_table_tasks();
  if (name == "smoke") return smoke_tasks();
  return std::nullopt;
}

// What one set-up pass produces: the parsed specs' systems in task order, and
// the classified types.
struct Setup {
  std::vector<check::ScenarioSpec> specs;
  std::vector<check::ScenarioSystem> systems;
  std::vector<std::unique_ptr<typesys::ObjectType>> types;
};

// Set-up as setup_s defines it: parse_scenario_specs over the workload's spec
// text, make_type for every classified type, build_spec_system for every
// spec. Returns nullopt (with `error` set) if the text does not parse.
std::optional<Setup> set_up(const std::vector<Task>& tasks, std::string& error) {
  std::string text;
  for (const Task& task : tasks) {
    if (task.check) text += task.check->spec + "\n";
  }
  Setup setup;
  check::ScenarioParse parse = check::parse_scenario_specs(text);
  if (!parse.ok()) {
    error = parse.errors.front();
    return std::nullopt;
  }
  setup.specs = std::move(parse.specs);
  for (const Task& task : tasks) {
    if (task.classify) setup.types.push_back(typesys::make_type(task.classify->type));
  }
  for (const check::ScenarioSpec& spec : setup.specs) {
    setup.systems.push_back(check::build_spec_system(spec));
  }
  return setup;
}

std::string format_level(const hierarchy::Level& level) {
  return std::to_string(level.level) + (level.capped ? "+" : "");
}

bool same_level(const hierarchy::Level& a, const hierarchy::Level& b) {
  return a.level == b.level && a.capped == b.capped;
}

// checks_attempted / checks_failed: every check, classification, minimize and
// replay is one attempted item; an item that records any mismatch failed.
class Tally {
 public:
  void begin() {
    ++attempted_;
    item_start_ = failures_.size();
  }
  void fail(std::string what) { failures_.push_back(std::move(what)); }
  void end() {
    if (failures_.size() != item_start_) ++failed_;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::size_t item_start_ = 0;
  std::vector<std::string> failures_;
};

void write_counters(util::JsonWriter& json, const obs::MetricsSnapshot& snapshot) {
  json.key("metrics");
  json.begin_object();
  for (const obs::MetricSample& sample : snapshot) {
    if (sample.kind == obs::MetricKind::kHistogram) continue;
    json.key(sample.name);
    if (sample.kind == obs::MetricKind::kGauge) {
      json.value(static_cast<long>(sample.gauge_value()));
    } else {
      json.value(sample.value);
    }
  }
  json.end_object();
}

void write_stats(util::JsonWriter& json, const sim::ExplorerStats& stats) {
  json.key_value("visited", stats.visited);
  json.key_value("transitions", stats.transitions);
  json.key_value("orbit_skipped", stats.orbit_skipped);
  json.key_value("store_nodes", stats.store.nodes);
  json.key_value("store_value_bytes", stats.store.value_bytes);
  json.key_value("store_encodes", stats.store.encodes);
  json.key_value("store_canonical_hits", stats.store.canonical_hits);
  json.key_value("dedup_cache_probes", stats.hot.dedup_cache_probes);
  json.key_value("dedup_cache_hits", stats.hot.dedup_cache_hits);
  json.key_value("probe_total", stats.hot.probe_total);
  json.key_value("probe_ops", stats.hot.probe_ops);
  json.key_value("max_probe", stats.hot.max_probe);
  json.key_value("rehashes", stats.hot.rehashes);
  json.key_value("cas_retries", stats.hot.cas_retries);
  json.key_value("migration_stripes", stats.hot.migration_stripes);
}

// What the build guard in run.py judges: how this binary was compiled.
void write_build(util::JsonWriter& json) {
#ifdef NDEBUG
  constexpr bool kNdebug = true;
#else
  constexpr bool kNdebug = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  constexpr bool kSanitizer = true;
#else
  constexpr bool kSanitizer = false;
#endif
#ifdef __OPTIMIZE__
  constexpr bool kOptimized = true;
#else
  constexpr bool kOptimized = false;
#endif
  json.key("build");
  json.begin_object();
  json.key_value("build_type", RCONS_BENCH_BUILD_TYPE);
  json.key_value("cxx_flags", RCONS_BENCH_CXX_FLAGS);
  json.key_value("ndebug", kNdebug);
  json.key_value("dcheck", RCONS_DCHECK_ENABLED == 1);
  json.key_value("sanitizer", kSanitizer);
  json.key_value("optimized", kOptimized);
  json.end_object();
}

// Classifies one type and checks its levels and the paper's bounds.
void run_classify(const ClassifyTask& want, const typesys::ObjectType& type, Tally& tally,
                  util::JsonWriter& rec) {
  tally.begin();
  auto start = Clock::now();
  const hierarchy::Level disc = hierarchy::max_discerning_level(type, want.cap);
  const double disc_s = seconds_since(start);
  start = Clock::now();
  const hierarchy::Level recd = hierarchy::max_recording_level(type, want.cap);
  const double rec_s = seconds_since(start);
  const hierarchy::HierarchyBounds bounds = hierarchy::bounds_for_readable(disc, recd);
  const std::string label = "classify " + want.type;
  if (!same_level(disc, want.discerning)) {
    tally.fail(label + ": discerning level " + format_level(disc) + ", expected " +
               format_level(want.discerning));
  }
  if (!same_level(recd, want.recording)) {
    tally.fail(label + ": recording level " + format_level(recd) + ", expected " +
               format_level(want.recording));
  }
  // Theorem 3 / Corollary 17: cons is the discerning level and rcons sits in
  // [recording, min(recording + 1, cons)].
  if (!disc.capped && !recd.capped &&
      (bounds.cons != disc.level || bounds.rcons_lo != recd.level ||
       bounds.rcons_hi != std::min(recd.level + 1, disc.level))) {
    tally.fail(label + ": bounds_for_readable disagrees with the levels");
  }
  tally.end();

  rec.key_value("kind", "classify");
  rec.key_value("type", want.type);
  rec.key_value("discerning_s", disc_s);
  rec.key_value("recording_s", rec_s);
  rec.key_value("discerning", format_level(disc));
  rec.key_value("recording", format_level(recd));
}

// Checks one spec's system through check::check (kAuto) and, for a
// refutation, minimizes the violation and replays the minimized schedule.
// `session` is null on untraced executions.
void run_check(const CheckTask& want, const check::ScenarioSpec& spec,
               check::ScenarioSystem system, int threads, obs::Session* session,
               Tally& tally, util::JsonWriter& rec) {
  check::CheckRequest request;
  request.budget.crash_model = spec.crash_model;
  request.budget.crash_budget = spec.crash_budget;
  request.strategy = check::Strategy::kAuto;
  request.num_threads = threads;
  if (session != nullptr) {
    request.obs = session->hooks();
    session->metrics().reset();
  }
  // check() consumes the request; minimize and replay need a pristine copy.
  std::optional<check::ScenarioSystem> pristine;
  if (want.refute) pristine = system;
  request.system = std::move(system);
  const check::Budget budget = request.budget;
  const obs::Hooks hooks = request.obs;

  tally.begin();
  const auto start = Clock::now();
  const check::CheckReport report = check::check(std::move(request));
  const double check_s = seconds_since(start);
  const std::string label = "check '" + want.spec + "'";
  if (report.clean != want.clean) {
    tally.fail(label + ": " + (report.clean ? "clean" : "violation") + ", expected " +
               (want.clean ? "clean" : "violation"));
  }
  if (want.clean && !report.complete) tally.fail(label + ": verdict is not exhaustive");
  if (report.stats.visited != want.visited) {
    tally.fail(label + ": visited " + std::to_string(report.stats.visited) + ", expected " +
               std::to_string(want.visited));
  }
  tally.end();

  rec.key_value("kind", "check");
  rec.key_value("spec", want.spec);
  rec.key_value("strategy", check::strategy_name(report.strategy));
  rec.key_value("threads_used", report.threads_used);
  rec.key_value("clean", report.clean);
  rec.key_value("check_s", check_s);
  write_stats(rec, report.stats);
  if (session != nullptr) write_counters(rec, report.metrics);
  if (!want.refute || !report.violation) return;

  const sim::Violation& found = *report.violation;
  tally.begin();
  auto phase = Clock::now();
  const check::MinimizeResult minimized = check::minimize(*pristine, budget, found);
  const double minimize_s = seconds_since(phase);
  if (found.property == sim::PropertyKind::kNone ||
      minimized.violation.property != found.property) {
    tally.fail(label + ": minimize lost the violated property");
  }
  tally.end();

  tally.begin();
  if (session != nullptr) session->metrics().reset();
  phase = Clock::now();
  const sim::ReplayReport replayed =
      sim::replay(pristine->memory, pristine->processes, minimized.violation.schedule,
                  pristine->properties, budget.max_steps_per_run, hooks);
  const double replay_s = seconds_since(phase);
  if (!replayed.violation || replayed.violation->property != found.property) {
    tally.fail(label + ": minimized schedule does not replay the violated property");
  }
  tally.end();

  rec.key_value("minimize_s", minimize_s);
  rec.key_value("minimize_replays", minimized.replays);
  rec.key_value("original_events", static_cast<std::uint64_t>(minimized.original_events));
  rec.key_value("final_events",
                static_cast<std::uint64_t>(minimized.violation.schedule.size()));
  rec.key_value("replay_s", replay_s);
  if (session != nullptr) {
    const obs::MetricsSnapshot snapshot = session->metrics().snapshot();
    const obs::MetricSample* steps = obs::find_sample(snapshot, "replay.steps");
    rec.key_value("replay_steps", steps == nullptr ? std::uint64_t{0} : steps->value);
  }
}

int usage(const char* message) {
  std::cerr << "rcons_bench: " << message
            << "\nusage: rcons_bench --workload NAME [--seed N] [--trace-out FILE]\n";
  return 2;
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        seed = std::stoull(value);
      } else if (arg == "--trace-out") {
        trace_out = value;
      } else {
        return usage(("unknown option " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  std::optional<std::vector<Task>> maybe_tasks = workload_tasks(workload);
  if (!maybe_tasks) return usage(("unknown workload '" + workload + "'").c_str());
  std::vector<Task> tasks = std::move(*maybe_tasks);
  if (workload == "paper-table") {
    std::mt19937_64 rng(seed);
    std::shuffle(tasks.begin(), tasks.end(), rng);
  }
  const int nproc = available_cpus();
  const int threads = std::min(kMaxThreads, nproc);

  std::optional<obs::Session> session;
  if (!trace_out.empty()) {
    obs::SessionOptions options;
    options.trace_out = trace_out;
    session.emplace(options);
  }

  // Timed set-up passes for setup_s. The pass inside the wall-clock window
  // below repeats the same work and is not a sample.
  std::string error;
  std::vector<double> setup_samples;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto start = Clock::now();
    const std::optional<Setup> discard = set_up(tasks, error);
    setup_samples.push_back(seconds_since(start));
    if (!discard) {
      std::cerr << "rcons_bench: workload spec does not parse: " << error << "\n";
      return 2;
    }
  }

  Tally tally;
  std::ostringstream out;
  out.precision(17);
  util::JsonWriter rec(out);
  rec.begin_object();
  rec.key("tasks");
  rec.begin_array();

  const auto wall_start = Clock::now();
  Setup setup = *set_up(tasks, error);
  std::size_t spec_index = 0;
  std::size_t type_index = 0;
  for (const Task& task : tasks) {
    rec.begin_object();
    if (task.classify) {
      run_classify(*task.classify, *setup.types[type_index++], tally, rec);
    } else {
      run_check(*task.check, setup.specs[spec_index], std::move(setup.systems[spec_index]),
                threads, session ? &*session : nullptr, tally, rec);
      ++spec_index;
    }
    rec.end_object();
  }
  const double wall_s = seconds_since(wall_start);
  rec.end_array();

  std::uint64_t trace_dropped = 0;
  bool trace_written = true;
  if (session) {
    trace_dropped = session->tracer()->events_dropped();
    trace_written = session->finish(&error);
  }
  rusage usage_now{};
  getrusage(RUSAGE_SELF, &usage_now);

  rec.key_value("workload", workload);
  rec.key_value("seed", seed);
  rec.key_value("threads", threads);
  rec.key_value("nproc", nproc);
  rec.key_value("hardware_concurrency", static_cast<int>(std::thread::hardware_concurrency()));
  write_build(rec);
  rec.key_value("setup_s", *std::min_element(setup_samples.begin(), setup_samples.end()));
  rec.key_value("wall_s", wall_s);
  rec.key_value("peak_rss_mb", static_cast<double>(usage_now.ru_maxrss) / 1024.0);
  rec.key_value("attempted", tally.attempted());
  rec.key_value("failed", tally.failed());
  rec.key_value("trace_dropped", trace_dropped);
  rec.key("failures");
  rec.begin_array();
  for (const std::string& failure : tally.failures()) rec.value(failure);
  rec.end_array();
  rec.end_object();
  if (!trace_written) {
    std::cerr << "rcons_bench: " << error << "\n";
    return 2;
  }
  std::cout << out.str() << "\n";
  return 0;
}
