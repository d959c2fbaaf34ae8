// Executes one op through the product's public entry points and classifies
// the verdict against the op's known answer.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lisa/ci_gate.hpp"
#include "lisa/pipeline.hpp"
#include "stream.hpp"

namespace gatebench {

/// The contract store a CI gate holds after the whole incident history:
/// every corpus ticket inferred by MockLlm::infer and translated.
[[nodiscard]] lisa::core::ContractStore build_store();

struct Outcome {
  bool admitted = false;      // gate: allowed and no needs-attention; pipeline: all_passed()
  bool blocked = false;       // gate: !allowed; pipeline: some contract failed
  bool inconclusive = false;  // needs_attention, or some report not conclusive()
  bool failed = false;        // threw, or "does not build" on a parse-clean source
  std::string failure;
  int schedules = 0;
  int screened_settled = 0;
  int screened_total = 0;
  int inference_attempts = 0;
  std::vector<lisa::core::ContractCheckReport> reports;
  double ledger_write_ms = 0.0;  // incident-ingest: ProvenanceLedger::write_jsonl
  std::uintmax_t ledger_bytes = 0;

  /// "admit" | "block" | "attention" | "failed", or "inconclusive" /
  /// "admit-inconclusive" when some contract was not decided.
  [[nodiscard]] const char* got() const;
  [[nodiscard]] int matched() const;
};

/// Single client: one op at a time, each waiting for its verdict.
class Runner {
 public:
  /// `workdir` receives the incident-ingest journal and ledger files.
  Runner(Workload workload, const lisa::core::ContractStore& store, std::string workdir);

  [[nodiscard]] Outcome run(const Op& op) const;

 private:
  Workload workload_;
  const lisa::core::ContractStore& store_;
  std::string workdir_;
  lisa::core::CiGate gate_;
  lisa::core::Pipeline pipeline_;
};

/// Verdict counts of a stream, checked op by op against the known answers.
struct Tally {
  long ops = 0;
  long correct = 0;
  long silent_admits = 0;  // known block, admitted
  long false_blocks = 0;   // known admit, blocked
  long inconclusive = 0;
  long failed = 0;
  /// "<case> <version> <class> expected=.. got=.." -> occurrences.
  std::map<std::string, long> mismatches;

  void add(const Op& op, const Outcome& outcome);
  [[nodiscard]] double correct_pct() const;
  /// Prints the four verdict counts and every mismatch by case, version and
  /// edit class.
  void print(const char* label) const;
};

}  // namespace gatebench
