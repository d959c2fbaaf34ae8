#include "runner.hpp"

#include <cstdio>
#include <filesystem>

#include "obs/provenance.hpp"
#include "obs/trace.hpp"

namespace gatebench {

namespace core = lisa::core;

core::ContractStore build_store() {
  core::ContractStore store;
  for (const lisa::corpus::FailureTicket& ticket : lisa::corpus::Corpus::all()) {
    const lisa::inference::SemanticsProposal proposal =
        lisa::inference::MockLlm().infer(ticket);
    store.add_all(core::translate(proposal, ticket.system).contracts);
  }
  return store;
}

const char* Outcome::got() const {
  if (failed) return "failed";
  if (inconclusive) return admitted ? "admit-inconclusive" : "inconclusive";
  if (admitted) return "admit";
  return blocked ? "block" : "attention";
}

int Outcome::matched() const {
  int count = 0;
  for (const core::ContractCheckReport& report : reports)
    if (report.target_statements > 0) ++count;
  return count;
}

namespace {

core::CheckOptions gate_options() {
  core::CheckOptions options;
  options.run_concolic = false;  // as `lisa gate` runs it
  return options;
}

}  // namespace

Runner::Runner(Workload workload, const core::ContractStore& store, std::string workdir)
    : workload_(workload),
      store_(store),
      workdir_(std::move(workdir)),
      gate_(gate_options()) {}

Outcome Runner::run(const Op& op) const {
  Outcome out;
  try {
    if (workload_ != Workload::kIncidentIngest) {
      core::GateDecision decision = gate_.evaluate(op.source, store_);
      out.admitted = decision.allowed && !decision.needs_attention;
      out.blocked = !decision.allowed;
      out.inconclusive = decision.needs_attention || decision.inconclusive_contracts > 0 ||
                         decision.schedule_inconclusive > 0;
      for (const std::string& violation : decision.violations)
        if (violation.rfind("commit does not build", 0) == 0) {
          out.failed = true;
          out.failure = violation;
        }
      out.schedules = decision.schedules_explored;
      out.screened_settled = decision.screened_settled;
      out.screened_total = decision.screened_settled + decision.screened_unknown;
      out.reports = std::move(decision.reports);
      return out;
    }
    const std::string stem = workdir_ + "/" + op.ticket->case_id;
    core::PipelineRunOptions run_options;
    run_options.journal_path = stem + ".journal.jsonl";
    lisa::obs::ProvenanceLedger ledger;
    run_options.ledger = &ledger;
    core::PipelineResult result = pipeline_.run(*op.ticket, op.source, run_options);
    const std::string ledger_path = stem + ".ledger.jsonl";
    {
      lisa::obs::ScopedSpan span("bench.ledger_write");
      if (!ledger.write_jsonl(ledger_path)) {
        out.failed = true;
        out.failure = "cannot write " + ledger_path;
      }
      out.ledger_write_ms = span.elapsed_ms();
    }
    std::error_code size_error;
    out.ledger_bytes = std::filesystem::file_size(ledger_path, size_error);
    out.admitted = result.all_passed();
    for (const core::ContractCheckReport& report : result.reports) {
      if (!report.passed()) out.blocked = true;
      if (!report.conclusive()) out.inconclusive = true;
    }
    if (result.inference_failed) {
      out.failed = true;
      out.failure = "inference failed: " + result.inference_error;
    }
    out.schedules = result.schedules_explored();
    const core::ScreeningSummary screening = result.screening();
    out.screened_settled = screening.settled();
    out.screened_total = screening.settled() + screening.unknown;
    out.inference_attempts = result.inference_attempts;
    out.reports = std::move(result.reports);
  } catch (const std::exception& error) {
    out = Outcome{};
    out.failed = true;
    out.failure = error.what();
  }
  return out;
}

void Tally::add(const Op& op, const Outcome& outcome) {
  ++ops;
  if (outcome.inconclusive) ++inconclusive;
  const bool expect_block = op.expect == Expect::kBlock;
  // Only a conclusive verdict that matches the known answer is right: an
  // inconclusive block is not a proof that the commit regresses.
  bool right = false;
  if (outcome.failed) {
    ++failed;
  } else if (expect_block) {
    right = !outcome.admitted && !outcome.inconclusive;
    if (outcome.admitted) ++silent_admits;
  } else {
    right = outcome.admitted && !outcome.inconclusive;
    if (outcome.blocked) ++false_blocks;
  }
  if (right) {
    ++correct;
  } else {
    ++mismatches[op.key() + " expected=" + (expect_block ? "block" : "admit") +
                 " got=" + outcome.got() +
                 (outcome.failure.empty() ? "" : " (" + outcome.failure + ")")];
  }
}

double Tally::correct_pct() const {
  return ops == 0 ? 0.0 : 100.0 * static_cast<double>(correct) / static_cast<double>(ops);
}

void Tally::print(const char* label) const {
  std::printf("%s: %ld ops checked against known answers\n", label, ops);
  std::printf("  silent_admits    = %ld count (known block, admitted)\n", silent_admits);
  std::printf("  false_blocks     = %ld count (known admit, blocked)\n", false_blocks);
  std::printf("  inconclusive_ops = %ld count (needs attention or not conclusive)\n",
              inconclusive);
  std::printf("  failed_ops       = %ld count (threw, or did not build)\n", failed);
  std::printf("  mismatches by case, version and edit class: %zu\n", mismatches.size());
  for (const auto& [key, count] : mismatches) std::printf("    %-72s x%ld\n", key.c_str(), count);
}

}  // namespace gatebench
