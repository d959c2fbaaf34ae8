// Shared program facts (lisa/program_facts.hpp): the gate's one summary build
// and one schedule exploration per program must decide every contract
// exactly as a fresh set of facts per contract would, and the exploration
// memo must charge the budget once.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/paths.hpp"
#include "corpus/ticket.hpp"
#include "inference/mock_llm.hpp"
#include "lisa/checker.hpp"
#include "lisa/ci_gate.hpp"
#include "lisa/contract.hpp"
#include "lisa/program_facts.hpp"
#include "minilang/sema.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "support/budget.hpp"

namespace lisa::core {
namespace {

/// The 24-contract store MockLlm and translate produce from every ticket.
const ContractStore& full_store() {
  static const ContractStore store = [] {
    ContractStore built;
    for (const corpus::FailureTicket& ticket : corpus::Corpus::all())
      built.add_all(translate(inference::MockLlm().infer(ticket), ticket.system).contracts);
    return built;
  }();
  return store;
}

/// The full store plus a twin of hbase-counter-race's atomic contract under
/// another id: two stored contracts whose target is in the hbase program, so
/// both are decided by its one exploration.
const ContractStore& store_with_twin() {
  static const ContractStore store = [] {
    ContractStore built = full_store();
    for (const SemanticContract& contract : full_store().all()) {
      if (contract.id != "hbase-counter-race#0") continue;
      SemanticContract twin = contract;
      twin.id += "-twin";
      built.add(std::move(twin));
    }
    return built;
  }();
  return store;
}

CheckOptions gate_options() {
  CheckOptions options;
  options.run_concolic = false;  // as `lisa gate` runs it
  return options;
}

const corpus::FailureTicket& ticket_or_die(const std::string& case_id) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find(case_id);
  EXPECT_NE(ticket, nullptr) << case_id;
  return *ticket;
}

/// What must be byte-identical between the shared and per-contract runs.
struct Evaluation {
  std::string decision_json;  // timing fields zeroed
  std::string ledger_jsonl;   // empty without a ledger
  std::vector<std::string> witnesses;
};

Evaluation summarize(GateDecision decision, const obs::ProvenanceLedger* ledger) {
  Evaluation evaluation;
  decision.evaluation_ms = 0.0;
  decision.summary_ms = 0.0;
  for (ContractCheckReport& report : decision.reports) {
    report.screen_ms = 0.0;
    report.summary_ms = 0.0;
    evaluation.witnesses.push_back(report.contract_id + " screen: " + report.screen_witness);
    evaluation.witnesses.push_back(report.contract_id +
                                   " schedule: " + report.schedule_witness);
  }
  evaluation.decision_json = decision.to_json().dump();
  if (ledger != nullptr) evaluation.ledger_jsonl = ledger->to_jsonl();
  return evaluation;
}

Evaluation evaluate_shared(const std::string& source, bool with_ledger) {
  obs::ProvenanceLedger ledger;
  GateRunOptions run_options;
  if (with_ledger) run_options.ledger = &ledger;
  return summarize(CiGate(gate_options()).evaluate(source, full_store(), run_options),
                   with_ledger ? &ledger : nullptr);
}

/// The oracle: the gate's loop with a fresh ProgramFacts for every contract.
Evaluation evaluate_per_contract(const std::string& source, bool with_ledger) {
  const minilang::Program program = minilang::parse_checked(source);
  obs::ProvenanceLedger ledger;
  if (with_ledger) {
    std::string inputs = source;
    for (const SemanticContract& contract : full_store().all()) inputs += "\n" + contract.id;
    ledger.bind(inputs);
  }
  GateDecision decision;
  for (const SemanticContract& contract : full_store().all()) {
    if (contract_needs_target(contract) &&
        analysis::find_target_statements(program, contract.target_fragment).empty())
      continue;
    const CheckOptions options = gate_options();
    RunContext run;
    run.ledger = with_ledger ? &ledger : nullptr;
    const ProgramFacts facts(program, options.use_summaries);
    ContractCheckReport report = Checker().check(facts, contract, options, run);
    if (with_ledger) {
      report.slice_fp = contract_slice_fingerprint(facts, contract, options);
      ledger.capture_for(contract.id)->slice_fp = report.slice_fp;
    }
    decision.record(contract, std::move(report), /*schedule_warn_only=*/false);
  }
  return summarize(std::move(decision), with_ledger ? &ledger : nullptr);
}

class SharedFactsOracle : public ::testing::TestWithParam<std::string> {};

TEST_P(SharedFactsOracle, GateMatchesFreshFactsPerContract) {
  const corpus::FailureTicket& ticket = ticket_or_die(GetParam());
  ASSERT_EQ(full_store().size(), 24u);
  const std::vector<std::pair<const char*, const std::string*>> versions = {
      {"buggy", &ticket.buggy_source},
      {"patched", &ticket.patched_source},
      {"latest", &ticket.latest_source}};
  for (const auto& [version, source] : versions) {
    if (source->empty()) continue;
    for (const bool with_ledger : {false, true}) {
      SCOPED_TRACE(std::string(version) + (with_ledger ? " with ledger" : " without ledger"));
      const Evaluation shared = evaluate_shared(*source, with_ledger);
      const Evaluation fresh = evaluate_per_contract(*source, with_ledger);
      EXPECT_EQ(shared.decision_json, fresh.decision_json);
      EXPECT_EQ(shared.ledger_jsonl, fresh.ledger_jsonl);
      EXPECT_EQ(shared.witnesses, fresh.witnesses);
      EXPECT_EQ(shared.ledger_jsonl.empty(), !with_ledger);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCases, SharedFactsOracle, ::testing::ValuesIn([] {
                           std::vector<std::string> ids;
                           for (const auto& ticket : corpus::Corpus::all())
                             ids.push_back(ticket.case_id);
                           return ids;
                         }()));

/// Spans named `name` recorded while `run` executes with tracing on.
template <typename Run>
int spans_named(const char* name, const Run& run) {
  obs::Tracer& tracer = obs::tracer();
  tracer.clear();
  tracer.set_enabled(true);
  run();
  tracer.set_enabled(false);
  int count = 0;
  for (const obs::SpanRecord& span : tracer.snapshot())
    if (span.name == name) ++count;
  tracer.clear();
  return count;
}

TEST(SharedFacts, OneSummaryBuildPerGateEvaluation) {
  const corpus::FailureTicket& ticket = ticket_or_die("zk-1208-ephemeral-create");
  const CiGate gate(gate_options());
  obs::Counter& builds = obs::metrics().counter("summaries.builds");
  const std::int64_t before = builds.value();
  EXPECT_EQ(spans_named("summaries.compute",
                        [&] { (void)gate.evaluate(ticket.buggy_source, full_store()); }),
            1);
  EXPECT_EQ(builds.value() - before, 1);

  // The resume path fingerprints every journaled entry from the same facts
  // the re-checks use: still one build, not one per contract plus one.
  const std::string journal = ::testing::TempDir() + "shared_facts_resume.jsonl";
  std::remove(journal.c_str());
  GateRunOptions run_options;
  run_options.journal_path = journal;
  EXPECT_EQ(spans_named("summaries.compute",
                        [&] {
                          (void)gate.evaluate(ticket.buggy_source, full_store(), run_options);
                        }),
            1);
  run_options.resume = true;
  GateDecision resumed;
  EXPECT_EQ(spans_named("summaries.compute",
                        [&] {
                          resumed = gate.evaluate(ticket.buggy_source, full_store(), run_options);
                        }),
            1);
  EXPECT_GT(resumed.resumed_contracts, 0);
  std::remove(journal.c_str());
}

TEST(SharedFacts, SummaryTimeIsCountedOnce) {
  const corpus::FailureTicket& ticket = ticket_or_die("hdfs-safemode-allocation");
  const GateDecision decision = CiGate(gate_options()).evaluate(ticket.buggy_source, full_store());
  ASSERT_EQ(full_store().size(), 24u);
  int reporting = 0;
  for (const ContractCheckReport& report : decision.reports)
    if (report.summary_ms > 0.0) ++reporting;
  EXPECT_EQ(reporting, 1);
  EXPECT_GT(decision.summary_ms, 0.0);
  EXPECT_LE(decision.summary_ms, decision.evaluation_ms);
}

TEST(SharedFacts, OneExplorationForRacePatchedAgainstFullStore) {
  const corpus::FailureTicket& ticket = ticket_or_die("hbase-counter-race");
  obs::Counter& explorations = obs::metrics().counter("schedule.explorations");
  const std::int64_t before = explorations.value();
  GateDecision decision;
  EXPECT_EQ(spans_named("schedule.explore",
                        [&] {
                          decision = CiGate(gate_options())
                                         .evaluate(ticket.patched_source, full_store());
                        }),
            1);
  EXPECT_EQ(explorations.value() - before, 1);
  // Only the contract whose target is in this program is explored: the
  // other tickets' atomic / eventually contracts are vacuous for it.
  EXPECT_EQ(decision.schedule_contracts, 1);
  ASSERT_GT(decision.schedules_explored, 0);
  EXPECT_TRUE(decision.allowed);

  // Two contracts on the same target share the one exploration.
  EXPECT_EQ(spans_named("schedule.explore",
                        [&] {
                          decision = CiGate(gate_options())
                                         .evaluate(ticket.patched_source, store_with_twin());
                        }),
            1);
  EXPECT_EQ(decision.schedule_contracts, 2);
  EXPECT_EQ(decision.schedules_explored % 2, 0);
  EXPECT_TRUE(decision.allowed);
}

/// The reports of the stored contracts the schedule explorer decides.
std::vector<const ContractCheckReport*> explored_reports(const GateDecision& decision) {
  std::vector<const ContractCheckReport*> explored;
  for (const SemanticContract& contract : store_with_twin().all()) {
    if (contract.pattern != "atomic" && contract.pattern != "eventually") continue;
    for (const ContractCheckReport& report : decision.reports)
      if (report.contract_id == contract.id) explored.push_back(&report);
  }
  return explored;
}

TEST(SharedFacts, MemoHitChargesTheBudgetNothing) {
  const corpus::FailureTicket& ticket = ticket_or_die("hbase-counter-race");
  const minilang::Program program = minilang::parse_checked(ticket.patched_source);
  concolic::ScheduleExplorer explorer(program, {});
  const int one_exploration = explorer.explore().schedules_explored;
  ASSERT_GT(one_exploration, 0);

  support::BudgetLimits limits;
  limits.max_schedules = one_exploration;
  support::Budget budget(limits);
  GateRunOptions run_options;
  run_options.budget = &budget;
  const GateDecision decision =
      CiGate(gate_options()).evaluate(ticket.patched_source, store_with_twin(), run_options);
  const std::vector<const ContractCheckReport*> explored = explored_reports(decision);
  ASSERT_EQ(explored.size(), 2u);
  for (const ContractCheckReport* report : explored) {
    EXPECT_TRUE(report->schedule_conclusive) << report->contract_id;
    EXPECT_FALSE(report->budget_exhausted) << report->contract_id;
    EXPECT_EQ(report->schedules_explored, one_exploration) << report->contract_id;
    EXPECT_TRUE(report->passed()) << report->contract_id;
    EXPECT_EQ(report->schedule_witness, explored.front()->schedule_witness);
  }
  EXPECT_EQ(budget.schedules(), one_exploration);
  EXPECT_FALSE(budget.exhausted());
  EXPECT_TRUE(decision.allowed);
  EXPECT_FALSE(decision.needs_attention);
}

TEST(SharedFacts, BudgetTooSmallForOneExplorationBlocksEveryExploredContract) {
  const corpus::FailureTicket& ticket = ticket_or_die("hbase-counter-race");
  support::BudgetLimits limits;
  limits.max_schedules = 5;
  support::Budget budget(limits);
  GateRunOptions run_options;
  run_options.budget = &budget;
  const GateDecision decision =
      CiGate(gate_options()).evaluate(ticket.patched_source, store_with_twin(), run_options);
  const std::vector<const ContractCheckReport*> explored = explored_reports(decision);
  ASSERT_EQ(explored.size(), 2u);
  for (const ContractCheckReport* report : explored) {
    EXPECT_FALSE(report->schedule_conclusive) << report->contract_id;
    EXPECT_TRUE(report->budget_exhausted) << report->contract_id;
    EXPECT_EQ(report->budget_resource, "schedules") << report->contract_id;
    EXPECT_EQ(report->schedule_inconclusive_reason, budget.exhausted_reason());
    EXPECT_EQ(report->schedules_explored, 5) << report->contract_id;
  }
  EXPECT_EQ(budget.schedules(), 6);  // the denied charge counts, once
  EXPECT_EQ(decision.schedule_inconclusive, 2);
  EXPECT_FALSE(decision.allowed);
}

}  // namespace
}  // namespace lisa::core
