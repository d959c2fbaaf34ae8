// Gate benchmark: one process, one client, closed loop.
//
//   gatebench --workload <commit-stream|race-stream|incident-ingest>
//             --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//
// A CI runner waits for each verdict before sending the next commit, so the
// loop is closed: the next op starts when the previous one returned. Every
// verdict is checked against the op's known answer (stream.hpp).
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
// the separate traced run: it times each layer's public functions on the
// same inputs and reads the spans the program already records through
// obs::tracer(). The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/callgraph.hpp"
#include "analysis/paths.hpp"
#include "concolic/schedule.hpp"
#include "host.hpp"
#include "inference/embedding.hpp"
#include "inference/mock_llm.hpp"
#include "lisa/journal.hpp"
#include "minilang/compiler.hpp"
#include "minilang/sema.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runner.hpp"
#include "staticcheck/slice.hpp"
#include "staticcheck/summaries.hpp"
#include "stream.hpp"
#include "support/jsonl.hpp"
#include "support/log.hpp"

namespace gatebench {
namespace {

namespace core = lisa::core;
namespace obs = lisa::obs;

/// Store builds per run; setup_s is their median.
constexpr int kSetupRepeats = 31;
/// Calibration kernel runs on each side of a store build.
constexpr int kKernelSamples = 4;

/// Pins the calling thread to the next CPU the process may run on, one CPU
/// per call, round robin; the destructor restores the original affinity.
/// Threads the program spawns inherit the CPU.
///
/// On a shared host the CPUs are not equally fast (on a 4-vCPU Xeon cloud VM
/// one vCPU ran commit-stream 40% slower than another), and the scheduler
/// keeps a single-threaded process on the CPU it started on, so unpinned
/// runs differ by that much. Rotating every round makes every run sample the
/// same mix of the host's CPUs. On race-stream it also puts all threads of
/// one op on one CPU: unpinned, each thread handoff waits for a wakeup on
/// another CPU, whose latency follows the host's load (p90 spread 0.66
/// unpinned against 0.10 pinned over five runs on a loaded host). Pinned
/// runs keep every context switch and its system time, not the cross-CPU
/// wakeup latency; the traced run is unpinned and shows that cost.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
  }
  ~CpuRotation() {
    if (!cpus_.empty()) (void)sched_setaffinity(0, sizeof allowed_, &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof one, &one);  // best effort: unpinned on failure
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

struct Usage {
  double cpu_ms = 0.0;  // user + system
  double sys_ms = 0.0;
  long nvcsw = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) { return tv.tv_sec * 1000.0 + tv.tv_usec / 1000.0; };
  return {ms(ru.ru_utime) + ms(ru.ru_stime), ms(ru.ru_stime), ru.ru_nvcsw};
}

/// Peak resident set size of this process image in MB. Read from VmHWM, not
/// ru_maxrss: Linux carries ru_maxrss across execve, so it would report the
/// launching process's peak when that was larger.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof line, status) != nullptr)
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  std::fclose(status);
  return static_cast<double>(kb) / 1024.0;
}

/// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

/// Metrics in print order, rendered with every digit the double carries.
class Metrics {
 public:
  void add(const char* name, double value, const char* unit) {
    rows_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }

  void print() const {
    for (const Row& row : rows_)
      std::printf("  %-38s %14s %s\n", row.name.c_str(), number(row.value).c_str(),
                  row.unit.c_str());
  }

  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (const Row& row : rows_) {
      if (out.size() > 1) out += ", ";
      out += "\"" + row.name + "\": {\"value\": " + number(row.value) + ", \"unit\": \"" +
             row.unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };

  static std::string number(double value) {
    char buffer[64];
    const std::to_chars_result result = std::to_chars(buffer, buffer + sizeof buffer, value);
    return std::string(buffer, result.ptr);
  }

  std::vector<Row> rows_;
};

void emit(bool correct, long attempted, long failed, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, metrics.json().c_str());
}

struct Args {
  Workload workload = Workload::kCommitStream;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string workdir;
};

bool parse_args(int argc, char** argv, Args* args) {
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      have_workload = parse_workload(value, &args->workload);
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args->seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args->trace = value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds && have_trace &&
         !args->workdir.empty();
}

/// Factor that takes times measured next to this kernel time to the nominal
/// host speed (host.hpp).
double calibration(double kernel) { return kNominalKernelMs / kernel; }

struct Setup {
  core::ContractStore store;
  double setup_s = 0.0;      // calibrated
  double raw_setup_s = 0.0;  // as measured
};

/// Builds the contract store kSetupRepeats times, each on the next CPU with
/// the calibration kernel timed on either side; setup_s is the median of the
/// calibrated build times.
Setup timed_setup() {
  (void)lisa::corpus::Corpus::all();  // static corpus data, not inference work
  CpuRotation rotation;
  Setup setup;
  std::vector<double> seconds;
  std::vector<double> raw_seconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    rotation.next();
    const double kernel_before = sample_kernel_ms(kKernelSamples);
    const double start = now_ms();
    setup.store = build_store();
    const double build_s = (now_ms() - start) / 1000.0;
    raw_seconds.push_back(build_s);
    const double kernel_after = sample_kernel_ms(kKernelSamples);
    seconds.push_back(build_s * calibration((kernel_before + kernel_after) / 2.0));
  }
  setup.setup_s = quantile(seconds, 0.5);
  setup.raw_setup_s = quantile(raw_seconds, 0.5);
  std::printf("setup: %zu contracts from %zu tickets, median of %d builds %.3f ms "
              "(uncalibrated %.3f ms)\n",
              setup.store.size(), lisa::corpus::Corpus::all().size(), kSetupRepeats,
              setup.setup_s * 1000.0, setup.raw_setup_s * 1000.0);
  return setup;
}

/// The seeded input stream, drawn one round at a time outside any timing.
/// Every round is drawn from two streams of the same seed and must be
/// byte-identical across them, and every commit must build before it is
/// timed.
class Inputs {
 public:
  explicit Inputs(const Args& args)
      : stream_(args.workload, args.seed), replay_(args.workload, args.seed) {}

  [[nodiscard]] std::vector<Op> next() {
    std::vector<Op> round = stream_.next_round();
    const std::string round_digest = digest(round);
    if (round_digest != digest(replay_.next_round())) {
      identical_ = false;
      std::printf("input round %d not byte-identical when regenerated\n", rounds_);
    }
    for (const Op& op : round) {
      try {
        (void)lisa::minilang::parse_checked(op.source);
      } catch (const std::exception& error) {
        builds_ = false;
        std::printf("input does not build: %s (%s): %s\n", op.key().c_str(),
                    op.edit_detail.c_str(), error.what());
      }
    }
    if (rounds_++ == 0) first_digest_ = round_digest;
    ops_per_round_ = round.size();
    return round;
  }

  [[nodiscard]] bool ok() const { return identical_ && builds_; }

  void print() const {
    std::printf("inputs: %d rounds drawn x %zu ops, first round digest %s, every round regenerated "
                "byte-identical: %s, all build: %s\n",
                rounds_, ops_per_round_, first_digest_.c_str(), identical_ ? "yes" : "NO",
                builds_ ? "yes" : "NO");
  }

 private:
  Stream stream_;
  Stream replay_;
  int rounds_ = 0;
  std::size_t ops_per_round_ = 0;
  std::string first_digest_;
  bool identical_ = true;
  bool builds_ = true;
};

/// Runs the first op of every base source once, so lazy initialisation is
/// not charged to the timed ops.
void warm_up(const Runner& runner, const std::vector<Op>& round) {
  std::set<std::string> seen;
  for (const Op& op : round)
    if (seen.insert(op.ticket->case_id + " " + op.version).second) (void)runner.run(op);
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1000.0 + static_cast<double>(ts.tv_nsec) / 1e6;
}

int run_timed(const Args& args) {
  const Setup setup = timed_setup();
  Inputs inputs(args);
  const Runner runner(args.workload, setup.store, args.workdir);
  warm_up(runner, inputs.next());  // a round of its own, never timed

  // Each timed op is a fresh commit of a freshly drawn round: the seeded
  // edits (names, shift amounts) differ from round to round, and only
  // identity commits repeat their base source. Every figure is the median
  // over rounds of that round's figure, calibrated by the median of kernel
  // runs timed after each of the round's ops (host.hpp). Kernel runs between
  // rounds would track the host worse: the first runs on a CPU the rotation
  // just moved to find its caches cold. The rounds rotate over the CPUs, so
  // each run samples the same mix of them.
  std::vector<double> p50s;
  std::vector<double> p90s;
  std::vector<double> round_ms;
  std::vector<double> cpu_per_op;
  std::vector<double> scales;  // calibration factor per round
  std::vector<double> kernels;
  std::size_t samples = 0;
  Tally tally;
  CpuRotation rotation;
  const double start = now_ms();
  while (now_ms() - start < args.seconds * 1000.0) {
    const std::vector<Op> round = inputs.next();
    rotation.next();
    std::vector<double> latencies;
    std::vector<double> round_kernels;
    double round_cpu_ms = 0.0;
    for (const Op& op : round) {
      const double op_start = now_ms();
      const double op_cpu = process_cpu_ms();
      const Outcome outcome = runner.run(op);
      latencies.push_back(now_ms() - op_start);
      round_cpu_ms += process_cpu_ms() - op_cpu;
      tally.add(op, outcome);
      round_kernels.push_back(kernel_ms());
    }
    double summed_ms = 0.0;
    for (double ms : latencies) summed_ms += ms;
    p50s.push_back(quantile(latencies, 0.5));
    p90s.push_back(quantile(latencies, 0.9));
    round_ms.push_back(summed_ms);
    cpu_per_op.push_back(round_cpu_ms / static_cast<double>(latencies.size()));
    kernels.push_back(quantile(round_kernels, 0.5));
    scales.push_back(calibration(kernels.back()));
    samples += latencies.size();
  }
  const double elapsed_s = (now_ms() - start) / 1000.0;
  const double ops_per_round = static_cast<double>(samples) / static_cast<double>(p50s.size());
  // Median over rounds of a per-round time, each scaled by its round's
  // calibration factor (or as measured, with `calibrated` false).
  const auto median_time = [&](const std::vector<double>& per_round, bool calibrated) {
    std::vector<double> values;
    for (std::size_t i = 0; i < per_round.size(); ++i)
      values.push_back(per_round[i] * (calibrated ? scales[i] : 1.0));
    return quantile(values, 0.5);
  };
  // Ops per second of summed op latency: the median round time gives it.
  const auto throughput = [&](bool calibrated) {
    return ops_per_round / (median_time(round_ms, calibrated) / 1000.0);
  };

  Metrics metrics;
  metrics.add("setup_s", setup.setup_s, "s");
  metrics.add("latency_p50_ms", median_time(p50s, true), "ms");
  metrics.add("latency_p90_ms", median_time(p90s, true), "ms");
  metrics.add("throughput_ops_s", throughput(true), "1/s");
  metrics.add("cpu_ms_per_op", median_time(cpu_per_op, true), "ms");
  metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
  metrics.add("verdicts_correct_pct", tally.correct_pct(), "%");

  inputs.print();
  std::printf("timed: %s, %zu rounds, %zu latency samples (every op timed once) in %.1f s\n",
              workload_name(args.workload), p50s.size(), samples, elapsed_s);
  std::printf("timings: median over rounds of each round's p50, p90, summed latency and CPU "
              "per op, each calibrated to the nominal host speed\n");
  std::printf("host speed: calibration kernel median %.4f ms (nominal %.4f ms); round "
              "medians from %.4f ms to %.4f ms\n",
              quantile(kernels, 0.5), kNominalKernelMs, quantile(kernels, 0.0),
              quantile(kernels, 1.0));
  std::printf("uncalibrated: setup %.3f ms, p50 %.3f ms, p90 %.3f ms, %.1f ops/s, "
              "%.3f ms CPU per op\n",
              setup.raw_setup_s * 1000.0, median_time(p50s, false), median_time(p90s, false),
              throughput(false), median_time(cpu_per_op, false));
  metrics.print();
  tally.print("verdicts");
  emit(inputs.ok() && tally.failed == 0, tally.ops, tally.failed, metrics);
  return 0;
}

// ---- Traced run -----------------------------------------------------------

/// Spans whose self time is orchestration, not a layer's own work: their
/// exclusive time is the op time no layer span accounts for.
const std::set<std::string>& container_spans() {
  static const std::set<std::string> names = {"bench.op", "gate.evaluate", "pipeline.run",
                                              "pipeline.check", "checker.contract"};
  return names;
}

/// One op run with tracing on, with the program's spans, counters and the
/// op's verdict folded into counts.
struct TracedOp {
  const Op* op = nullptr;
  std::string got;
  double ms = 0.0;
  int summaries_builds = 0;
  int smt_queries = 0;
  std::int64_t smt_unknown = 0;
  double smt_ms = 0.0;
  double replay_ms = 0.0;
  int contract_checks = 0;
  double check_ms = 0.0;
  double screen_ms = 0.0;
  double unattributed_ms = 0.0;
  double root_ms = 0.0;
  long nvcsw = 0;
  double sys_ms = 0.0;
  int schedules = 0;
  int contracts = 0;
  int matched = 0;
  int screened_settled = 0;
  int screened_total = 0;
  std::int64_t tests_run = 0;
  std::int64_t degraded_runs = 0;
  int inference_attempts = 0;
  double ledger_write_ms = 0.0;
  double ledger_bytes = 0.0;

  /// The counts that must repeat exactly across two runs of one seed.
  [[nodiscard]] std::string counts() const {
    return got + " schedules=" + std::to_string(schedules) +
           " summaries=" + std::to_string(summaries_builds) +
           " smt=" + std::to_string(smt_queries) + " contracts=" + std::to_string(contracts) +
           " matched=" + std::to_string(matched);
  }
};

TracedOp trace_op(const Runner& runner, const Op& op, Outcome* outcome) {
  obs::Tracer& tracer = obs::tracer();
  tracer.clear();
  obs::Counter& tests_run = obs::metrics().counter("concolic.tests_run");
  obs::Counter& degraded_runs = obs::metrics().counter("concolic.degraded_runs");
  obs::Counter& smt_unknown = obs::metrics().counter("smt.unknown");
  const std::int64_t tests_before = tests_run.value();
  const std::int64_t degraded_before = degraded_runs.value();
  const std::int64_t unknown_before = smt_unknown.value();
  TracedOp t;
  t.op = &op;
  const Usage before = usage_now();
  {
    obs::ScopedSpan root("bench.op");
    const double start = now_ms();
    *outcome = runner.run(op);
    t.ms = now_ms() - start;
  }
  const Usage after = usage_now();
  t.nvcsw = after.nvcsw - before.nvcsw;
  t.sys_ms = after.sys_ms - before.sys_ms;
  t.got = outcome->got();
  t.schedules = outcome->schedules;
  t.contracts = static_cast<int>(outcome->reports.size());
  t.matched = outcome->matched();
  t.screened_settled = outcome->screened_settled;
  t.screened_total = outcome->screened_total;
  t.inference_attempts = outcome->inference_attempts;
  t.ledger_write_ms = outcome->ledger_write_ms;
  t.ledger_bytes = static_cast<double>(outcome->ledger_bytes);
  t.tests_run = tests_run.value() - tests_before;
  t.degraded_runs = degraded_runs.value() - degraded_before;
  t.smt_unknown = smt_unknown.value() - unknown_before;

  const std::vector<obs::SpanRecord> spans = tracer.snapshot();
  std::map<std::uint64_t, double> child_us;
  for (const obs::SpanRecord& span : spans)
    if (span.parent_id != 0) child_us[span.parent_id] += span.dur_us;
  for (const obs::SpanRecord& span : spans) {
    const double ms = span.dur_us / 1000.0;
    if (span.name == "summaries.compute") {
      ++t.summaries_builds;
    } else if (span.name == "smt.solve") {
      ++t.smt_queries;
      t.smt_ms += ms;
    } else if (span.name == "concolic.run_test") {
      t.replay_ms += ms;
    } else if (span.name == "checker.contract") {
      ++t.contract_checks;
      t.check_ms += ms;
    } else if (span.name.rfind("screen.", 0) == 0) {
      t.screen_ms += ms;
    }
    if (span.name == "bench.op") t.root_ms = ms;
    if (container_spans().count(span.name) > 0)
      t.unattributed_ms += std::max(0.0, span.dur_us - child_us[span.id]) / 1000.0;
  }
  return t;
}

/// Layer costs measured by calling each layer's public functions directly on
/// one op's inputs, with tracing off.
struct LayerTimes {
  double parse_ms = 0.0;
  double compile_ms = 0.0;
  double callgraph_ms = 0.0;
  double summaries_ms = 0.0;
  double slice_ms = 0.0;
  double select_ms = 0.0;
  double journal_ms = 0.0;
  double infer_ms = 0.0;
  double explore_ms = 0.0;    // one ScheduleExplorer::explore
  int explore_schedules = 0;  // schedules that one explore ran
  bool spawning = false;      // the program has @tests that spawn threads
  double tree_ms = 0.0;       // summed over matched state-predicate contracts
  int tree_paths = 0;
  int trees = 0;
};

template <typename F>
double time_ms(F&& body) {
  const double start = now_ms();
  body();
  return now_ms() - start;
}

/// Times each layer on `op`'s program, for the contracts the op checked
/// (`reports`). Layers the op itself never calls are timed too (slicing and
/// test selection on the gate workloads, compile everywhere), so each row
/// reads as that layer's cost on this input; the *_per_op counts say how
/// often the op pays it.
LayerTimes time_layers(const Op& op, const std::vector<core::ContractCheckReport>& reports,
                       const std::map<std::string, const core::SemanticContract*>& contracts,
                       bool run_concolic, const std::string& workdir) {
  namespace minilang = lisa::minilang;
  LayerTimes t;
  minilang::Program program;
  t.parse_ms = time_ms([&] { program = minilang::parse_checked(op.source); });
  t.compile_ms = time_ms([&] {
    try {
      (void)minilang::compile(program);
    } catch (const std::exception&) {
      // Timed either way; no product path compiles yet.
    }
  });
  lisa::analysis::CallGraph graph;
  t.callgraph_ms = time_ms([&] { graph = lisa::analysis::CallGraph::build(program); });
  std::optional<lisa::staticcheck::SummaryMap> summaries;
  t.summaries_ms =
      time_ms([&] { summaries.emplace(lisa::staticcheck::SummaryMap::compute(program, graph)); });

  std::vector<const core::SemanticContract*> checked;
  for (const core::ContractCheckReport& report : reports) {
    const auto found = contracts.find(report.contract_id);
    if (found == contracts.end()) continue;
    const core::SemanticContract& contract = *found->second;
    checked.push_back(&contract);
    if (report.target_statements == 0 ||
        contract.kind != lisa::corpus::SemanticsKind::kStatePredicate)
      continue;
    lisa::analysis::TreeOptions tree_options;
    tree_options.contract_condition = contract.condition;
    t.tree_ms += time_ms([&] {
      t.tree_paths += static_cast<int>(lisa::analysis::build_execution_tree(
                                           program, graph, contract.target_fragment,
                                           tree_options)
                                           .paths.size());
    });
    ++t.trees;
  }
  t.slice_ms = time_ms([&] {
    const lisa::staticcheck::SliceEngine engine(program, graph, &*summaries);
    for (const core::SemanticContract* contract : checked)
      (void)core::contract_slice_fingerprint(engine, *contract, run_concolic);
  });
  t.select_ms = time_ms([&] {
    const lisa::inference::TestSelector selector(program);
    for (const core::SemanticContract* contract : checked)
      if (contract->kind == lisa::corpus::SemanticsKind::kStatePredicate)
        (void)selector.rank(contract->target_fragment + " " + contract->condition_text);
  });
  t.journal_ms = time_ms([&] {
    core::CheckJournal journal(workdir + "/direct.journal.jsonl");
    journal.begin(core::CheckJournal::fingerprint(op.source));
    for (const core::ContractCheckReport& report : reports) journal.record(report);
  });
  t.infer_ms = time_ms([&] { (void)lisa::inference::MockLlm().infer(*op.ticket); });
  t.explore_ms = time_ms([&] {
    lisa::concolic::ScheduleExplorer explorer(program, lisa::concolic::ScheduleExploreOptions{});
    const lisa::concolic::ScheduleExplorationResult result = explorer.explore();
    t.explore_schedules = result.schedules_explored;
    t.spawning = result.tests_with_threads > 0;
  });
  return t;
}

template <typename T, typename M>
double sum(const std::vector<T>& items, M T::*member) {
  double total = 0.0;
  for (const T& item : items) total += static_cast<double>(item.*member);
  return total;
}

void print_rows(const std::vector<TracedOp>& pass, const std::vector<LayerTimes>& layers) {
  std::vector<std::size_t> order(pass.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return pass[a].op->key() < pass[b].op->key();
  });
  std::printf("per-base rows (traced pass; explor = schedules / one explore):\n");
  std::printf("  %-50s %-6s %-9s %9s %4s %4s %5s %5s %6s %6s %7s\n", "case version class",
              "expect", "got", "ms", "ctr", "mtch", "summ", "smt", "sched", "explor", "ctxsw");
  for (std::size_t i : order) {
    const TracedOp& t = pass[i];
    std::printf("  %-50s %-6s %-9s %9.3f %4d %4d %5d %5d %6d %6.2f %7ld\n",
                t.op->key().c_str(), t.op->expect == Expect::kBlock ? "block" : "admit",
                t.got.c_str(), t.ms, t.contracts, t.matched, t.summaries_builds,
                t.smt_queries, t.schedules, ratio(t.schedules, layers[i].explore_schedules),
                t.nvcsw);
  }
}

int run_traced(const Args& args) {
  const Setup setup = timed_setup();
  Inputs inputs(args);
  const std::vector<Op> round = inputs.next();
  inputs.print();
  const Runner runner(args.workload, setup.store, args.workdir);
  std::map<std::string, const core::SemanticContract*> contracts;
  for (const core::SemanticContract& contract : setup.store.all())
    contracts[contract.id] = &contract;
  obs::Tracer& tracer = obs::tracer();
  warm_up(runner, round);

  // Untraced and traced passes over one round; the first two traced passes
  // keep their per-op records for the exact-repeat check and the tables.
  const double start = now_ms();
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<std::string> untraced_got;
  std::vector<Outcome> outcomes(round.size());  // of the first traced pass
  std::vector<Outcome> later(round.size());
  const auto untraced_pass = [&] {
    untraced_got.clear();
    double total = 0.0;
    for (const Op& op : round) {
      const double op_start = now_ms();
      const Outcome outcome = runner.run(op);
      total += now_ms() - op_start;
      untraced_got.push_back(outcome.got());
    }
    untraced_ms.push_back(total);
  };
  const auto traced_pass = [&](std::vector<Outcome>& into) {
    tracer.set_enabled(true);
    std::vector<TracedOp> pass;
    for (std::size_t i = 0; i < round.size(); ++i)
      pass.push_back(trace_op(runner, round[i], &into[i]));
    tracer.set_enabled(false);
    tracer.clear();
    traced_ms.push_back(sum(pass, &TracedOp::ms));
    return pass;
  };

  untraced_pass();
  const std::vector<TracedOp> first = traced_pass(outcomes);
  const std::vector<TracedOp> second = traced_pass(later);
  untraced_pass();
  // Exact repeat: verdicts and counts of one seed must not move between
  // passes, so later changes can cite them as counts.
  bool repeat_ok = true;
  std::string repeat_text;
  for (std::size_t i = 0; i < round.size(); ++i) {
    repeat_text += first[i].counts() + "\n";
    if (first[i].counts() != second[i].counts() || untraced_got[i] != first[i].got) {
      repeat_ok = false;
      std::printf("repeat mismatch: %s: [%s] vs [%s], untraced %s\n", round[i].key().c_str(),
                  first[i].counts().c_str(), second[i].counts().c_str(),
                  untraced_got[i].c_str());
    }
  }
  Tally tally;
  std::vector<LayerTimes> layers;
  for (std::size_t i = 0; i < round.size(); ++i) {
    tally.add(round[i], outcomes[i]);
    layers.push_back(time_layers(round[i], outcomes[i].reports, contracts,
                                 args.workload == Workload::kIncidentIngest, args.workdir));
  }
  // More traced/untraced pairs while the run has time left, for the overhead.
  while (now_ms() - start < args.seconds * 1000.0) {
    (void)traced_pass(later);
    untraced_pass();
  }

  // Schedule-explorer layer: only programs whose @tests spawn threads.
  double explore_ms = 0.0;
  double one_explore_schedules = 0.0;
  double gate_schedules = 0.0;
  int spawning = 0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (!layers[i].spawning) continue;
    ++spawning;
    explore_ms += layers[i].explore_ms;
    one_explore_schedules += layers[i].explore_schedules;
    gate_schedules += first[i].schedules;
  }
  const double ops = static_cast<double>(first.size());
  const double untraced_median = quantile(untraced_ms, 0.5);
  const double smt_queries = sum(first, &TracedOp::smt_queries);

  Metrics m;
  m.add("minilang.parse_ms", sum(layers, &LayerTimes::parse_ms) / ops, "ms");
  m.add("minilang.compile_ms", sum(layers, &LayerTimes::compile_ms) / ops, "ms");
  m.add("analysis.callgraph_ms", sum(layers, &LayerTimes::callgraph_ms) / ops, "ms");
  m.add("analysis.tree_ms",
        ratio(sum(layers, &LayerTimes::tree_ms), sum(layers, &LayerTimes::trees)), "ms");
  m.add("analysis.paths",
        ratio(sum(layers, &LayerTimes::tree_paths), sum(layers, &LayerTimes::trees)), "count");
  m.add("staticcheck.summaries_ms", sum(layers, &LayerTimes::summaries_ms) / ops, "ms");
  m.add("staticcheck.summaries_builds_per_op", sum(first, &TracedOp::summaries_builds) / ops,
        "count");
  m.add("staticcheck.screen_ms", sum(first, &TracedOp::screen_ms) / ops, "ms");
  m.add("staticcheck.settled_fraction",
        ratio(sum(first, &TracedOp::screened_settled), sum(first, &TracedOp::screened_total)),
        "fraction");
  m.add("staticcheck.slice_ms", sum(layers, &LayerTimes::slice_ms) / ops, "ms");
  m.add("smt.queries_per_op", smt_queries / ops, "count");
  m.add("smt.solve_ms", sum(first, &TracedOp::smt_ms) / ops, "ms");
  m.add("smt.us_per_query", ratio(sum(first, &TracedOp::smt_ms) * 1000.0, smt_queries), "us");
  m.add("smt.unknown", sum(first, &TracedOp::smt_unknown), "count");
  m.add("concolic.tests_run_per_op", sum(first, &TracedOp::tests_run) / ops, "count");
  m.add("concolic.replay_ms", sum(first, &TracedOp::replay_ms) / ops, "ms");
  m.add("concolic.degraded_runs", sum(first, &TracedOp::degraded_runs), "count");
  m.add("schedule.explore_ms",
        spawning > 0 ? explore_ms / spawning : sum(layers, &LayerTimes::explore_ms) / ops, "ms");
  m.add("schedule.schedules_per_op", sum(first, &TracedOp::schedules) / ops, "count");
  m.add("schedule.explorations_per_op", ratio(gate_schedules, one_explore_schedules), "count");
  m.add("schedule.schedules_per_s", ratio(one_explore_schedules, explore_ms / 1000.0), "1/s");
  m.add("schedule.ctx_switches_per_op", sum(first, &TracedOp::nvcsw) / ops, "count");
  m.add("schedule.sys_cpu_ms_per_op", sum(first, &TracedOp::sys_ms) / ops, "ms");
  m.add("inference.infer_ms", sum(layers, &LayerTimes::infer_ms) / ops, "ms");
  m.add("inference.select_ms", sum(layers, &LayerTimes::select_ms) / ops, "ms");
  m.add("inference.attempts", sum(first, &TracedOp::inference_attempts) / ops, "count");
  m.add("lisa.contracts_per_op", sum(first, &TracedOp::contracts) / ops, "count");
  m.add("lisa.contracts_matched_per_op", sum(first, &TracedOp::matched) / ops, "count");
  m.add("lisa.check_ms",
        ratio(sum(first, &TracedOp::check_ms), sum(first, &TracedOp::contract_checks)), "ms");
  m.add("lisa.journal_ms", sum(layers, &LayerTimes::journal_ms) / ops, "ms");
  m.add("obs.ledger_write_ms", sum(first, &TracedOp::ledger_write_ms) / ops, "ms");
  m.add("obs.ledger_bytes", sum(first, &TracedOp::ledger_bytes) / ops, "bytes");
  m.add("obs.trace_overhead_pct",
        100.0 * ratio(quantile(traced_ms, 0.5) - untraced_median, untraced_median), "%");
  m.add("obs.unattributed_pct",
        100.0 * ratio(sum(first, &TracedOp::unattributed_ms), sum(first, &TracedOp::root_ms)),
        "%");
  m.add("verdict.silent_admits", static_cast<double>(tally.silent_admits), "count");
  m.add("verdict.false_blocks", static_cast<double>(tally.false_blocks), "count");
  m.add("verdict.inconclusive_ops", static_cast<double>(tally.inconclusive), "count");
  m.add("verdict.failed_ops", static_cast<double>(tally.failed), "count");

  print_rows(first, layers);
  std::printf("traced: %s, %zu ops per pass, %zu untraced and %zu traced passes\n",
              workload_name(args.workload), round.size(), untraced_ms.size(), traced_ms.size());
  std::printf("exact repeat across two traced passes: %s, counts digest %s\n",
              repeat_ok ? "yes" : "NO", lisa::support::fnv1a_fingerprint(repeat_text).c_str());
  m.print();
  tally.print("verdicts (one round)");
  emit(inputs.ok() && repeat_ok && tally.failed == 0, tally.ops, tally.failed, m);
  return 0;
}

}  // namespace
}  // namespace gatebench

int main(int argc, char** argv) {
  gatebench::Args args;
  if (!gatebench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: gatebench --workload commit-stream|race-stream|incident-ingest "
                 "--seed N --seconds S --trace 0|1 --workdir DIR\n");
    return 2;
  }
  lisa::support::set_log_level(lisa::support::LogLevel::warn);
  std::error_code error;
  std::filesystem::create_directories(args.workdir, error);
  if (error) {
    std::fprintf(stderr, "cannot create %s: %s\n", args.workdir.c_str(),
                 error.message().c_str());
    return 2;
  }
  try {
    return args.trace ? gatebench::run_traced(args) : gatebench::run_timed(args);
  } catch (const std::exception& failure) {
    std::fprintf(stderr, "gatebench: %s\n", failure.what());
    return 1;
  }
}
