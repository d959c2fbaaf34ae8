#include "lisa/ci_gate.hpp"

#include "analysis/paths.hpp"
#include "lisa/journal.hpp"
#include "lisa/program_facts.hpp"
#include "minilang/sema.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/jsonl.hpp"
#include "support/stopwatch.hpp"

namespace lisa::core {

using support::Json;
using support::JsonArray;
using support::JsonObject;

void ContractStore::add(SemanticContract contract) {
  contracts_.push_back(std::move(contract));
}

void ContractStore::add_all(std::vector<SemanticContract> contracts) {
  for (SemanticContract& contract : contracts) contracts_.push_back(std::move(contract));
}

Json ContractStore::to_json() const {
  JsonArray entries;
  for (const SemanticContract& contract : contracts_) entries.push_back(contract.to_json());
  JsonObject root;
  root["contracts"] = Json(std::move(entries));
  return Json(std::move(root));
}

ContractStore ContractStore::from_json(const Json& json) {
  ContractStore store;
  if (json.has("contracts"))
    for (const Json& entry : json.at("contracts").as_array())
      store.add(SemanticContract::from_json(entry));
  return store;
}

Json GateDecision::to_json() const {
  JsonObject root;
  root["allowed"] = allowed;
  root["violations"] = Json::strings(violations);
  JsonArray report_entries;
  for (const ContractCheckReport& report : reports) report_entries.push_back(report.to_json());
  root["reports"] = Json(std::move(report_entries));
  root["evaluation_ms"] = evaluation_ms;
  root["screened_settled"] = screened_settled;
  root["screened_unknown"] = screened_unknown;
  root["settled_fraction"] = settled_fraction();
  root["concolic_skipped"] = concolic_skipped;
  root["summary_ms"] = summary_ms;
  if (inconclusive_contracts > 0) root["inconclusive_contracts"] = inconclusive_contracts;
  if (needs_attention) root["needs_attention"] = true;
  if (resumed_contracts > 0) root["resumed_contracts"] = resumed_contracts;
  // Emitted only when the explorer decided at least one contract, so gate
  // output for thread-free programs stays byte-identical.
  if (schedule_contracts > 0) {
    root["schedule_contracts"] = schedule_contracts;
    root["schedules_explored"] = schedules_explored;
    root["schedule_inconclusive"] = schedule_inconclusive;
    root["interleaving_conclusive_fraction"] = interleaving_conclusive_fraction();
  }
  // Longitudinal fields appear only when a history file was in play, so
  // history-off output stays byte-identical to pre-history LISA.
  if (baseline_runs >= 0) {
    root["baseline_runs"] = baseline_runs;
    JsonArray drift_entries;
    for (const obs::DriftFinding& finding : drift_findings)
      drift_entries.push_back(finding.to_json());
    root["drift_findings"] = Json(std::move(drift_entries));
  }
  return Json(std::move(root));
}

void GateDecision::record(const SemanticContract& contract, ContractCheckReport report,
                          bool schedule_warn_only) {
  if (!report.conclusive()) {
    ++inconclusive_contracts;
    needs_attention = true;
  }
  if (report.screen_verdict == "proved-safe" || report.screen_verdict == "proved-violated")
    ++screened_settled;
  else if (!report.screen_verdict.empty())
    ++screened_unknown;
  if (report.screen_skipped_concolic) ++concolic_skipped;
  summary_ms += report.summary_ms;
  if (report.schedules_explored > 0 || !report.schedule_conclusive) {
    ++schedule_contracts;
    schedules_explored += report.schedules_explored;
    if (!report.schedule_conclusive) {
      ++schedule_inconclusive;
      // An undrained schedule space is "no violation found so far", not a
      // pass: it blocks the commit unless the operator explicitly
      // downgraded it. Violating interleavings block unconditionally
      // through the passed() branch below.
      if (schedule_warn_only) {
        needs_attention = true;
      } else {
        allowed = false;
        violations.push_back(
            contract.id + " [" + contract.target_fragment +
            "]: schedule exploration inconclusive — " +
            report.schedule_inconclusive_reason +
            " (raise --max-schedules or pass --schedule-warn-only to downgrade)");
      }
    }
  }
  if (!report.passed()) {
    allowed = false;
    std::string reason = contract.id + " [" + contract.target_fragment + "]: ";
    if (report.violated > 0)
      reason += std::to_string(report.violated) + " unguarded path(s); ";
    if (!report.structural_violations.empty())
      reason += std::to_string(report.structural_violations.size()) +
                " structural violation(s); ";
    if (report.dynamic.symbolic_violations > 0)
      reason += std::to_string(report.dynamic.symbolic_violations) +
                " missing-check trace(s); ";
    if (report.schedule_violations > 0)
      reason += std::to_string(report.schedule_violations) +
                " violating interleaving(s), witness " + report.schedule_witness + "; ";
    reason += contract.description;
    violations.push_back(std::move(reason));
  }
  reports.push_back(std::move(report));
}

GateDecision CiGate::evaluate(const std::string& source, const ContractStore& store,
                              const GateRunOptions& run_options) const {
  GateDecision decision;
  obs::ScopedSpan span("gate.evaluate");
  span.attr("stored_contracts", store.size());
  const support::Stopwatch timer;
  minilang::Program program;
  try {
    program = minilang::parse_checked(source);
  } catch (const std::exception& error) {
    decision.allowed = false;
    decision.violations.push_back(std::string("commit does not build: ") + error.what());
    decision.evaluation_ms = timer.elapsed_ms();
    return decision;
  }
  std::string inputs = source;
  for (const SemanticContract& contract : store.all()) inputs += "\n" + contract.id;
  const ContractRun run(run_options, inputs);
  // One set of program facts serves every stored contract: one summary
  // build, one schedule exploration.
  const ProgramFacts facts(program, options_.use_summaries);
  std::vector<const SemanticContract*> contracts;
  for (const SemanticContract& contract : store.all()) {
    // Contracts whose target no longer exists in this codebase are vacuous
    // for the commit (e.g. contracts from another system's history).
    if (contract_needs_target(contract) &&
        analysis::find_target_statements(program, contract.target_fragment).empty())
      continue;
    contracts.push_back(&contract);
  }
  run.check(facts, contracts, options_,
            [&](const SemanticContract& contract, ContractCheckReport report, bool resumed) {
              if (resumed) ++decision.resumed_contracts;
              decision.record(contract, std::move(report), run_options.schedule_warn_only);
            });
  decision.evaluation_ms = timer.elapsed_ms();
  obs::MetricsRegistry& registry = obs::metrics();
  registry.counter("gate.evaluations").add();
  if (!decision.allowed) registry.counter("gate.blocked").add();
  if (decision.needs_attention) registry.counter("gate.needs_attention").add();
  if (decision.resumed_contracts > 0)
    registry.counter("gate.resumed_contracts").add(decision.resumed_contracts);
  if (decision.schedules_explored > 0)
    registry.counter("gate.schedules_explored").add(decision.schedules_explored);
  if (decision.schedule_inconclusive > 0)
    registry.counter("gate.schedule_inconclusive").add(decision.schedule_inconclusive);
  registry.histogram("gate.evaluation_ms").record(decision.evaluation_ms);
  std::string label = run_options.history_label;
  if (label.empty() && !run_options.history_path.empty()) {
    // Keyed by the contract ids, not the source: the baseline series must
    // survive source edits or flake detection could never fire.
    std::string ids;
    for (const SemanticContract& contract : store.all()) ids += contract.id + "\n";
    label = support::fnv1a_fingerprint(ids);
  }
  // evaluation_ms was captured before the history step, so history
  // bookkeeping cannot regress the very latency metric the drift rules watch.
  run.append_history(
      "gate", std::move(label), decision.reports,
      {{"evaluation_ms", decision.evaluation_ms},
       {"summary_ms", decision.summary_ms},
       {"settled_fraction", decision.settled_fraction()},
       {"violations", static_cast<double>(decision.violations.size())}},
      [&](const obs::RunRecord& record, const std::vector<const obs::RunRecord*>& baseline) {
        decision.baseline_runs = static_cast<int>(baseline.size());
        decision.drift_findings = obs::detect_drift(baseline, record, run_options.drift);
        for (const obs::DriftFinding& finding : decision.drift_findings) {
          if (finding.fails_gate) {
            decision.allowed = false;
            decision.violations.push_back("drift [" + finding.kind + "]: " + finding.cause);
          } else {
            decision.needs_attention = true;
          }
        }
        if (!decision.drift_findings.empty()) {
          registry.counter("gate.drift_findings")
              .add(static_cast<std::int64_t>(decision.drift_findings.size()));
          if (!decision.allowed) registry.counter("gate.blocked_by_drift").add();
        }
      });
  span.attr("allowed", decision.allowed);
  span.attr("evaluated", decision.reports.size());
  return decision;
}

}  // namespace lisa::core
