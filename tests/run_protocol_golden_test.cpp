// Golden pin of the contract-run protocol over the whole corpus.
//
// For every corpus case and every version (buggy, patched, latest) the test
// renders what the two entry points of the run protocol produce:
//   * `gate`: CiGate::evaluate against the full 24-contract store, as
//     `lisa gate` runs it (GateDecision::to_json);
//   * `pipeline`: a journaled Pipeline::run with a provenance ledger, as the
//     incident-ingest path runs it (PipelineResult::to_json);
//   * `ledger`: that run's ledger JSONL, one line per document;
//   * `journal`: that run's checkpoint journal, one line per document.
// Timing fields (keys ending in `_ms`, and `elapsed`) are dropped, so the
// rendering is deterministic. It must equal tests/golden/run_protocol.txt
// byte for byte. On a mismatch the actual rendering is written to
// run_protocol.actual in the working directory, for review and, when a
// change is intended, for replacing the golden file.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "corpus/ticket.hpp"
#include "inference/mock_llm.hpp"
#include "lisa/ci_gate.hpp"
#include "lisa/pipeline.hpp"
#include "obs/provenance.hpp"

namespace lisa {
namespace {

bool timing_key(const std::string& key) {
  return key == "elapsed" ||
         (key.size() >= 3 && key.compare(key.size() - 3, 3, "_ms") == 0);
}

support::Json strip_timing(support::Json json) {
  if (json.is_object()) {
    support::JsonObject& object = json.as_object();
    for (auto it = object.begin(); it != object.end();) {
      if (timing_key(it->first)) {
        it = object.erase(it);
      } else {
        it->second = strip_timing(std::move(it->second));
        ++it;
      }
    }
  } else if (json.is_array()) {
    for (support::Json& element : json.as_array()) element = strip_timing(std::move(element));
  }
  return json;
}

/// Each non-empty line of `jsonl`, parsed, stripped and re-dumped.
void render_jsonl(const std::string& jsonl, std::ostream& out) {
  std::istringstream lines(jsonl);
  std::string line;
  while (std::getline(lines, line))
    if (!line.empty()) out << strip_timing(support::Json::parse(line)).dump() << "\n";
}

const core::ContractStore& full_store() {
  static const core::ContractStore store = [] {
    core::ContractStore built;
    for (const corpus::FailureTicket& ticket : corpus::Corpus::all())
      built.add_all(
          core::translate(inference::MockLlm().infer(ticket), ticket.system).contracts);
    return built;
  }();
  return store;
}

void render_version(const corpus::FailureTicket& ticket, const char* version,
                    const std::string& source, std::ostream& out) {
  const std::string heading = "== " + ticket.case_id + " " + version + " ";
  core::CheckOptions gate_options;
  gate_options.run_concolic = false;  // as `lisa gate` runs it
  out << heading << "gate\n"
      << strip_timing(core::CiGate(gate_options).evaluate(source, full_store()).to_json()).dump()
      << "\n";

  const std::string journal_path = ::testing::TempDir() + "run_protocol_golden.jsonl";
  std::remove(journal_path.c_str());
  obs::ProvenanceLedger ledger;
  core::PipelineRunOptions run_options;
  run_options.journal_path = journal_path;
  run_options.ledger = &ledger;
  const core::PipelineResult result = core::Pipeline().run(ticket, source, run_options);
  out << heading << "pipeline\n" << strip_timing(result.to_json()).dump() << "\n";
  out << heading << "ledger\n";
  render_jsonl(ledger.to_jsonl(), out);
  out << heading << "journal\n";
  std::ifstream journal_file(journal_path);
  std::stringstream journal;
  journal << journal_file.rdbuf();
  render_jsonl(journal.str(), out);
  std::remove(journal_path.c_str());
}

TEST(RunProtocolGolden, CorpusGateAndPipelineMatchGolden) {
  ASSERT_EQ(full_store().size(), 24u);
  std::ostringstream actual;
  for (const corpus::FailureTicket& ticket : corpus::Corpus::all()) {
    render_version(ticket, "buggy", ticket.buggy_source, actual);
    render_version(ticket, "patched", ticket.patched_source, actual);
    if (!ticket.latest_source.empty())
      render_version(ticket, "latest", ticket.latest_source, actual);
  }
  std::ifstream golden_file(LISA_TESTS_DIR "/golden/run_protocol.txt");
  std::stringstream golden;
  golden << golden_file.rdbuf();
  if (actual.str() != golden.str()) {
    std::ofstream("run_protocol.actual") << actual.str();
    FAIL() << "gate/pipeline output differs from tests/golden/run_protocol.txt; the actual "
              "rendering is in run_protocol.actual";
  }
}

}  // namespace
}  // namespace lisa
