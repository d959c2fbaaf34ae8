#include "lisa/journal.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>

#include "lisa/program_facts.hpp"
#include "support/jsonl.hpp"
#include "support/log.hpp"

namespace lisa::core {

using support::Json;
using support::JsonObject;

namespace {

constexpr const char* kJournalKind = "lisa-check";
constexpr std::int64_t kJournalVersion = 1;
constexpr const char* kCaptureKey = "ledger_capture";

}  // namespace

std::string CheckJournal::fingerprint(const std::string& inputs) {
  // FNV-1a 64-bit (support/jsonl.hpp): stable across runs, cheap, and good
  // enough to tell "same inputs" from "different inputs" — the journal is a
  // cache keyed by it, not a security boundary.
  return support::fnv1a_fingerprint(inputs);
}

bool CheckJournal::load(const std::string& expected_fingerprint) {
  entries_.clear();
  std::ifstream in(path_);
  if (!in) return false;
  std::string line;
  if (!std::getline(in, line)) return false;
  if (!support::jsonl_header_matches(line, kJournalKind, kJournalVersion,
                                     expected_fingerprint)) {
    support::log(support::LogLevel::warn, "journal ", path_,
                 " does not match this run's inputs; starting fresh");
    return false;
  }
  std::size_t dropped = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      const Json json = Json::parse(line);
      Entry entry{ContractCheckReport::from_json(json), std::nullopt};
      if (entry.report.contract_id.empty()) {
        ++dropped;
        continue;
      }
      if (json.has(kCaptureKey)) {
        obs::ContractCapture capture = obs::ContractCapture::from_json(json.at(kCaptureKey));
        // Replayed on resume only as the evidence of the contract it was
        // journaled with.
        if (capture.contract_id == entry.report.contract_id) entry.capture = std::move(capture);
      }
      const std::string id = entry.report.contract_id;
      entries_[id] = std::move(entry);
    } catch (const std::exception&) {
      // A torn tail from a crash mid-append: everything before it is good.
      ++dropped;
    }
  }
  if (dropped > 0)
    support::log(support::LogLevel::warn, "journal ", path_, ": dropped ", dropped,
                 " unreadable entr(ies)");
  support::log(support::LogLevel::info, "journal ", path_, ": loaded ",
               entries_.size(), " checkpointed report(s)");
  return true;
}

bool CheckJournal::begin(const std::string& fingerprint) {
  std::ofstream out(path_, std::ios::trunc);
  if (!out) {
    support::log(support::LogLevel::warn, "journal ", path_,
                 " cannot be opened for writing; checkpointing disabled");
    writable_ = false;
    return false;
  }
  out << support::jsonl_header(kJournalKind, kJournalVersion, fingerprint) << "\n";
  writable_ = static_cast<bool>(out);
  return writable_;
}

void CheckJournal::record(const ContractCheckReport& report,
                          const obs::ContractCapture* capture) {
  if (!writable_ || path_.empty()) return;
  std::ofstream out(path_, std::ios::app);
  if (!out) return;
  Json line = report.to_json();
  if (capture != nullptr) line.as_object()[kCaptureKey] = capture->to_json();
  out << line.dump() << "\n";
  out.flush();
}

const ContractCheckReport* CheckJournal::find(const std::string& contract_id) const {
  const auto it = entries_.find(contract_id);
  return it == entries_.end() ? nullptr : &it->second.report;
}

const obs::ContractCapture* CheckJournal::capture(const std::string& contract_id) const {
  const auto it = entries_.find(contract_id);
  return it == entries_.end() || !it->second.capture.has_value() ? nullptr
                                                                 : &*it->second.capture;
}

const ContractCheckReport* CheckJournal::resumable(const std::string& contract_id,
                                                    const std::string& slice_fp,
                                                    bool need_capture) const {
  const ContractCheckReport* entry = find(contract_id);
  if (entry == nullptr || !entry->conclusive() || entry->slice_fp.empty() ||
      entry->slice_fp != slice_fp || (need_capture && capture(contract_id) == nullptr))
    return nullptr;
  return entry;
}

ContractRun::ContractRun(const RunContext& context, const std::string& inputs)
    : context_(context), fingerprint_(CheckJournal::fingerprint(inputs)) {
  // History needs per-contract SMT evidence, which only a ledger captures;
  // attaching one is output-neutral (provenance tests).
  if (!context_.history_path.empty() && context_.ledger == nullptr)
    context_.ledger = &local_ledger_;
  if (context_.ledger != nullptr) context_.ledger->bind(inputs);
}

void ContractRun::check(const ProgramFacts& facts,
                        const std::vector<const SemanticContract*>& contracts,
                        const CheckOptions& options, const OnReport& on_report) const {
  CheckJournal journal(context_.journal_path);
  if (!context_.journal_path.empty()) {
    if (context_.resume) (void)journal.load("");
    journal.begin(fingerprint_);
  }
  obs::ProvenanceLedger* const ledger = context_.ledger;
  const bool fingerprinted = !context_.journal_path.empty() || ledger != nullptr;
  for (const SemanticContract* contract : contracts) {
    const std::string slice_fp =
        fingerprinted ? contract_slice_fingerprint(facts, *contract, options) : "";
    const ContractCheckReport* checkpointed =
        journal.resumable(contract->id, slice_fp, /*need_capture=*/ledger != nullptr);
    ContractCheckReport report = checkpointed != nullptr
                                     ? *checkpointed
                                     : Checker().check(facts, *contract, options, context_);
    obs::ContractCapture* capture = nullptr;
    if (ledger != nullptr) {
      capture = ledger->capture_for(contract->id);
      // A resumed contract replays the evidence its checking run captured.
      if (checkpointed != nullptr) *capture = *journal.capture(contract->id);
      if (!slice_fp.empty()) capture->slice_fp = slice_fp;
    }
    report.slice_fp = slice_fp;
    journal.record(report, capture);
    on_report(*contract, std::move(report), checkpointed != nullptr);
  }
}

void ContractRun::append_history(std::string kind, std::string label,
                                 const std::vector<ContractCheckReport>& reports,
                                 const std::map<std::string, double>& metrics,
                                 const BeforeAppend& before_append) const {
  if (context_.history_path.empty()) return;
  obs::RunRecord record;
  record.kind = std::move(kind);
  record.label = std::move(label);
  record.input_fingerprint = fingerprint_;
  record.metrics = metrics;
  int inconclusive = 0;
  std::int64_t total_smt_queries = 0;
  std::vector<std::string> smt_digests;
  int explored = 0;
  int explored_inconclusive = 0;
  int schedules = 0;
  for (const ContractCheckReport& report : reports) {
    obs::ContractOutcome outcome;
    outcome.passed = report.passed();
    outcome.conclusive = report.conclusive();
    if (!outcome.conclusive) ++inconclusive;
    outcome.verdict = !outcome.conclusive ? "inconclusive"
                      : outcome.passed    ? "passed"
                                          : "violated";
    outcome.signature_digest = support::fnv1a_fingerprint(report.verdict_signature());
    outcome.slice_fp = report.slice_fp;
    if (const obs::ContractCapture* capture = context_.ledger->find(report.contract_id)) {
      outcome.smt_queries = static_cast<std::int64_t>(capture->smt_queries.size());
      for (const obs::SmtQueryEvidence& query : capture->smt_queries)
        smt_digests.push_back(query.digest);
    }
    total_smt_queries += outcome.smt_queries;
    record.contracts[report.contract_id] = std::move(outcome);
    if (report.schedules_explored > 0 || !report.schedule_conclusive) {
      ++explored;
      schedules += report.schedules_explored;
      if (!report.schedule_conclusive) ++explored_inconclusive;
    }
  }
  if (!smt_digests.empty()) {
    std::sort(smt_digests.begin(), smt_digests.end());
    std::string joined;
    for (const std::string& digest : smt_digests) joined += digest + "\n";
    record.smt_digest = support::fnv1a_fingerprint(joined);
  }
  record.metrics["smt_queries"] = static_cast<double>(total_smt_queries);
  record.metrics["contracts"] = static_cast<double>(reports.size());
  record.metrics["inconclusive"] = static_cast<double>(inconclusive);
  // Interleaving coverage for `lisa trends`; written only when the explorer
  // ran, so thread-free records stay byte-identical.
  if (explored > 0) {
    record.metrics["schedules_explored"] = static_cast<double>(schedules);
    record.metrics["interleaving_conclusive_fraction"] =
        static_cast<double>(explored - explored_inconclusive) / explored;
  }
  obs::RunHistory history(context_.history_path);
  (void)history.load();  // absent file = fresh baseline, not an error
  if (before_append) before_append(record, history.matching(record.kind, record.label));
  (void)history.append(record);  // red runs are history too
}

}  // namespace lisa::core
