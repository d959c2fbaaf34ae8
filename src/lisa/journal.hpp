// Checkpoint journal: crash-safe resume for long checking runs.
//
// A governed run (deadline, query budget) can be cut off mid-corpus — by
// its own budget, a CI timeout, or a crash. The journal makes the work
// durable at contract granularity: every finished ContractCheckReport is
// appended as one JSONL line, and a resumed run (`lisa check --resume`,
// `lisa gate --resume`) replays conclusive entries from the journal instead
// of re-checking them. Inconclusive entries (budget-refused paths, degraded
// replays) are deliberately *not* reused — resuming is the second chance to
// settle them.
//
// Format (one JSON document per line):
//   {"journal":"lisa-check","version":1,"fingerprint":"<hex>"}
//   {<ContractCheckReport::to_json()>, "ledger_capture": {...}}
//   ...
//
// "ledger_capture" is the contract's provenance capture, present when the
// run had a ledger; a resumed contract replays it into the new run's ledger,
// so ledger and history do not depend on whether a run resumed.
//
// The header fingerprint records the (case, source) the journal was written
// against. Callers that demand identical inputs pass it to load();
// ContractRun instead loads any compatible journal (empty expected
// fingerprint) and decides replay per entry by matching each report's slice
// fingerprint (staticcheck/slice.hpp) against the current program — a
// one-function edit then re-checks only the contracts whose verdict cone
// contains it. A torn final line (crash mid-append) is dropped; everything
// before it survives.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "lisa/checker.hpp"
#include "obs/history.hpp"
#include "obs/provenance.hpp"

namespace lisa::core {

class CheckJournal {
 public:
  explicit CheckJournal(std::string path) : path_(std::move(path)) {}

  /// Stable content fingerprint over the journal's identifying inputs
  /// (e.g. case id + source text, or store ids + source text).
  [[nodiscard]] static std::string fingerprint(const std::string& inputs);

  /// Loads an existing journal. Returns true iff the file exists, its
  /// header matches `expected_fingerprint` (empty = accept any journal of
  /// this kind/version), and at least the header parsed. Entries with
  /// unparseable lines (torn tail) are skipped with a warning.
  [[nodiscard]] bool load(const std::string& expected_fingerprint);

  /// Starts a fresh journal: truncates the file and writes the header.
  /// Returns false (and disables recording) when the file cannot be opened.
  bool begin(const std::string& fingerprint);

  /// Appends one finished report, with its ledger capture when there is
  /// one, and flushes, so a crash right after loses nothing. No-op when the
  /// journal is disabled (begin failed / no path).
  void record(const ContractCheckReport& report,
              const obs::ContractCapture* capture = nullptr);

  /// The journaled report for `contract_id`, or nullptr. Loaded entries
  /// only — records written this run are not replayed back.
  [[nodiscard]] const ContractCheckReport* find(const std::string& contract_id) const;

  /// The ledger capture journaled with `contract_id`'s report, or nullptr.
  [[nodiscard]] const obs::ContractCapture* capture(const std::string& contract_id) const;

  /// The journaled report to replay for `contract_id` on resume, or
  /// nullptr: only a conclusive entry whose slice fingerprint equals
  /// `slice_fp`, the contract's cone over the current program, stands —
  /// and, when `need_capture`, only one journaled with its ledger capture.
  /// Inconclusive entries (budget-cut, fault-degraded) and entries whose cone
  /// changed re-check.
  [[nodiscard]] const ContractCheckReport* resumable(const std::string& contract_id,
                                                     const std::string& slice_fp,
                                                     bool need_capture = false) const;

  [[nodiscard]] std::size_t loaded_entries() const { return entries_.size(); }

 private:
  std::string path_;
  bool writable_ = false;
  struct Entry {
    ContractCheckReport report;
    std::optional<obs::ContractCapture> capture;
  };
  std::map<std::string, Entry> entries_;
};

/// The one contract-run loop of the incident pipeline (Pipeline::run) and
/// the CI gate (CiGate::evaluate), so journal, resume, ledger and history
/// behave the same wherever a contract is enforced.
class ContractRun {
 public:
  /// Binds the run's ledger — the caller's, or a local one when history is
  /// on — to `inputs`, the string that identifies the run; the journal and
  /// the history record are fingerprinted over the same string.
  ContractRun(const RunContext& context, const std::string& inputs);
  ContractRun(const ContractRun&) = delete;
  ContractRun& operator=(const ContractRun&) = delete;

  /// The bound ledger; nullptr when neither the caller nor history asked
  /// for one.
  [[nodiscard]] obs::ProvenanceLedger* ledger() const { return context_.ledger; }

  /// Loads (on resume) and restarts the journal, then checks `contracts` in
  /// order: each contract's slice fingerprint is computed once (when a
  /// journal or ledger is attached) and decides resume; the report, replayed
  /// or checked, is journaled and handed to `on_report`.
  using OnReport = std::function<void(const SemanticContract& contract,
                                      ContractCheckReport report, bool resumed)>;
  void check(const ProgramFacts& facts, const std::vector<const SemanticContract*>& contracts,
             const CheckOptions& options, const OnReport& on_report) const;

  /// When history is on, appends one RunRecord: each report's outcome, the
  /// order-insensitive digest of the SMT queries the ledger captured,
  /// `metrics`, and the schedule metrics when any report was
  /// schedule-explored. `before_append` first sees the record and its
  /// baseline, the earlier records of the same kind and label.
  using BeforeAppend = std::function<void(const obs::RunRecord& record,
                                          const std::vector<const obs::RunRecord*>& baseline)>;
  void append_history(std::string kind, std::string label,
                      const std::vector<ContractCheckReport>& reports,
                      const std::map<std::string, double>& metrics,
                      const BeforeAppend& before_append = {}) const;

 private:
  RunContext context_;  // ledger resolved to the local one when history needs it
  obs::ProvenanceLedger local_ledger_;
  std::string fingerprint_;
};

}  // namespace lisa::core
