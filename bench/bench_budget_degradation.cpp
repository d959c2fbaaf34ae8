// Graceful degradation under shrinking budgets: a settled-fraction sweep
// with a CI-enforced monotonicity bound.
//
// A governed run may *refuse* work, never *invent* verdicts: as the SMT
// query budget shrinks, settled verdicts (verified/violated paths) may only
// disappear into the inconclusive bucket — a verdict present under a tight
// budget must agree with the ungoverned run on the same path. This bench
//   1. runs the full corpus ungoverned to establish reference verdicts,
//   2. sweeps the query budget down (64, 32, 16, 8, 4, 2, 1),
//   3. prints the settled fraction at each point, and
//   4. asserts no Verified↔Violated flip and no settled-verdict invention
//      anywhere in the sweep, exiting nonzero on violation so the
//      monotone-degradation contract is CI-enforceable
//      (ctest: bench_budget_degradation with --benchmark_filter=^$).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "lisa/pipeline.hpp"
#include "support/budget.hpp"

namespace {

using namespace lisa;

struct CorpusOutcome {
  // (case_id, contract_id, path chain) → verdict name, settled paths only.
  std::map<std::string, std::string> settled_verdicts;
  int settled = 0;
  int inconclusive = 0;
  int contracts = 0;
};

std::string path_key(const std::string& case_id, const core::ContractCheckReport& report,
                     const core::PathReport& path) {
  std::string key = case_id + "|" + report.contract_id + "|";
  for (const std::string& fn : path.call_chain) key += fn + ">";
  return key;
}

/// Runs the whole corpus under one budget (0 = ungoverned) and collects the
/// per-path verdict map. Each case gets a fresh budget so one pathological
/// case cannot starve the rest of the sweep point.
CorpusOutcome run_corpus(std::int64_t max_smt_queries) {
  CorpusOutcome outcome;
  for (const corpus::FailureTicket& ticket : corpus::Corpus::all()) {
    support::BudgetLimits limits;
    limits.max_smt_queries = max_smt_queries;
    support::Budget budget(limits);
    core::PipelineRunOptions run_options;
    if (max_smt_queries > 0) run_options.budget = &budget;
    const core::PipelineResult result =
        core::Pipeline().run(ticket, ticket.patched_source, run_options);
    for (const core::ContractCheckReport& report : result.reports) {
      ++outcome.contracts;
      outcome.inconclusive +=
          report.inconclusive + report.dynamic.inconclusive_hits + report.dynamic.degraded_runs;
      for (const core::PathReport& path : report.paths) {
        if (path.verdict != core::PathVerdict::kVerified &&
            path.verdict != core::PathVerdict::kViolated)
          continue;
        ++outcome.settled;
        outcome.settled_verdicts[path_key(ticket.case_id, report, path)] =
            core::path_verdict_name(path.verdict);
      }
    }
  }
  return outcome;
}

/// Returns 0 when every sweep point degrades monotonically, 1 otherwise.
int check_degradation_bound() {
  std::printf("=== budget degradation sweep (max SMT queries per case) ===\n\n");
  const CorpusOutcome reference = run_corpus(0);
  std::printf("%10s  %8s  %14s  %8s\n", "budget", "settled", "inconclusive",
              "fraction");
  std::printf("%10s  %8d  %14d  %7.0f%%\n", "unlimited", reference.settled,
              reference.inconclusive, 100.0);
  int violations = 0;
  for (const std::int64_t budget : {64, 32, 16, 8, 4, 2, 1}) {
    const CorpusOutcome governed = run_corpus(budget);
    const double fraction =
        reference.settled == 0
            ? 1.0
            : static_cast<double>(governed.settled) / reference.settled;
    std::printf("%10lld  %8d  %14d  %7.0f%%\n", static_cast<long long>(budget),
                governed.settled, governed.inconclusive, fraction * 100.0);
    for (const auto& [key, verdict] : governed.settled_verdicts) {
      const auto ref = reference.settled_verdicts.find(key);
      if (ref == reference.settled_verdicts.end()) {
        std::printf("  !! invented verdict under budget %lld: %s = %s\n",
                    static_cast<long long>(budget), key.c_str(), verdict.c_str());
        ++violations;
      } else if (ref->second != verdict) {
        std::printf("  !! flipped verdict under budget %lld: %s = %s (reference %s)\n",
                    static_cast<long long>(budget), key.c_str(), verdict.c_str(),
                    ref->second.c_str());
        ++violations;
      }
    }
  }
  std::printf("\nmonotone degradation: %s\n\n",
              violations == 0 ? "PASS (no flips, no invented verdicts)" : "FAIL");
  return violations == 0 ? 0 : 1;
}

void BM_CorpusUngoverned(benchmark::State& state) {
  for (auto _ : state) {
    const CorpusOutcome outcome = run_corpus(0);
    benchmark::DoNotOptimize(outcome.settled);
  }
}
BENCHMARK(BM_CorpusUngoverned)->Unit(benchmark::kMillisecond);

void BM_CorpusGoverned(benchmark::State& state) {
  const std::int64_t budget = state.range(0);
  for (auto _ : state) {
    const CorpusOutcome outcome = run_corpus(budget);
    benchmark::DoNotOptimize(outcome.settled);
  }
}
BENCHMARK(BM_CorpusGoverned)->Arg(64)->Arg(8)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const int violation = check_degradation_bound();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return violation;
}
