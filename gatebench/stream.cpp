#include "stream.hpp"

#include <cctype>

#include "minilang/parser.hpp"
#include "support/jsonl.hpp"

namespace gatebench {

using lisa::corpus::Corpus;
using lisa::corpus::FailureTicket;
using lisa::corpus::SemanticsKind;

bool parse_workload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kCommitStream, Workload::kRaceStream, Workload::kIncidentIngest})
    if (name == workload_name(w)) {
      *out = w;
      return true;
    }
  return false;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kCommitStream: return "commit-stream";
    case Workload::kRaceStream: return "race-stream";
    case Workload::kIncidentIngest: return "incident-ingest";
  }
  return "?";
}

std::string Op::key() const { return ticket->case_id + " " + version + " " + edit_class; }

namespace {

/// True when the ticket's buggy program spawns MiniLang threads, i.e. the
/// gate routes it through the schedule explorer.
bool spawns_threads(const FailureTicket& ticket) {
  bool spawns = false;
  lisa::minilang::parse(ticket.buggy_source)
      .for_each_stmt([&](const lisa::minilang::FuncDecl&, const lisa::minilang::Stmt& stmt) {
        if (stmt.kind == lisa::minilang::Stmt::Kind::kSpawn) spawns = true;
      });
  return spawns;
}

/// The zk-1208 source with the batch path guarded too, as in
/// CiGate.AllowsFullyGuardedCommit: the ZK-1496 fix, which the gate admits.
std::string fully_guarded_zk1208(const FailureTicket& ticket) {
  std::string source = ticket.patched_source;
  const std::string anchor =
      "  let i = 0;\n  while (i < len(paths)) {\n    create_ephemeral_node(";
  const std::size_t pos = source.find(anchor);
  if (pos == std::string::npos) return std::string();
  source.insert(pos, "  if (s.is_closing) {\n    throw \"SessionClosingException\";\n  }\n");
  return source;
}

Expect expected_answer(const FailureTicket& ticket, const std::string& version) {
  if (version == "guarded") return Expect::kAdmit;
  if (version == "patched" && ticket.kind == SemanticsKind::kInterleavingSensitive)
    return Expect::kAdmit;
  return Expect::kBlock;
}

bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

/// Renames every identifier token `from` to `to` outside string literals.
std::string rename_identifier(const std::string& source, const std::string& from,
                              const std::string& to) {
  std::string out;
  out.reserve(source.size() + 64);
  bool in_string = false;
  for (std::size_t i = 0; i < source.size();) {
    const char c = source[i];
    if (in_string) {
      out += c;
      if (c == '\\' && i + 1 < source.size()) out += source[++i];
      else if (c == '"') in_string = false;
      ++i;
    } else if (c == '"') {
      in_string = true;
      out += c;
      ++i;
    } else if (ident_char(c)) {
      std::size_t end = i;
      while (end < source.size() && ident_char(source[end])) ++end;
      const std::string token = source.substr(i, end - i);
      out += token == from ? to : token;
      i = end;
    } else {
      out += c;
      ++i;
    }
  }
  return out;
}

/// Applies `op.edit_class` to `op.source` with seeded parameters. Every edit
/// keeps the base's known answer: appends add code that reaches no contract
/// target, a line shift only moves positions, and a target rename keeps the
/// renamed function's body — including its unguarded call paths — intact.
void apply_edit(Op& op, lisa::support::Rng& rng) {
  const int tag = static_cast<int>(rng.next_in(100, 9999));
  if (op.edit_class == "append") {
    // The three benign shapes of bench/bench_gate_precision.cpp, made
    // system-neutral so they build against every corpus program.
    switch (rng.next_below(3)) {
      case 0:
        op.edit_detail = "helper audit_" + std::to_string(tag);
        op.source += "\nfn audit_" + std::to_string(tag) +
                     "(n: int) -> int { print(\"audit\", n); return n; }\n";
        break;
      case 1:
        op.edit_detail = "@entry health_check_" + std::to_string(tag);
        op.source += "\n@entry\nfn health_check_" + std::to_string(tag) +
                     "(n: int) -> int { return n + 1; }\n";
        break;
      default:
        op.edit_detail = "@test test_generated_" + std::to_string(tag);
        op.source += "\n@test\nfn test_generated_" + std::to_string(tag) +
                     "() { assert(1 + 1 == 2, \"math\"); }\n";
        break;
    }
  } else if (op.edit_class == "line-shift") {
    const int lines = static_cast<int>(rng.next_in(1, 8));
    op.edit_detail = std::to_string(lines) + " comment lines";
    std::string prefix;
    for (int i = 0; i < lines; ++i)
      prefix += "// commit " + std::to_string(tag) + " line " + std::to_string(i) + "\n";
    op.source = prefix + op.source;
  } else if (op.edit_class == "target-rename") {
    // Target matching is by substring, so the new name must not contain the
    // old fragment: a suffix does that, a prefix would still match.
    std::string old_name = op.ticket->expected_target;
    if (!old_name.empty() && old_name.back() == '(') old_name.pop_back();
    const std::string new_name = old_name + "_v" + std::to_string(tag);
    op.edit_detail = old_name + " -> " + new_name;
    op.source = rename_identifier(op.source, old_name, new_name);
  }
}

}  // namespace

Stream::Stream(Workload workload, std::uint64_t seed) : workload_(workload), rng_(seed) {
  // The guarded zk-1208 source is built once; Corpus::all() is immutable.
  static const std::string guarded = [] {
    const FailureTicket* zk = Corpus::find("zk-1208-ephemeral-create");
    return zk != nullptr ? fully_guarded_zk1208(*zk) : std::string();
  }();
  const bool race = workload == Workload::kRaceStream;
  for (const FailureTicket& ticket : Corpus::all()) {
    if (spawns_threads(ticket) != race) continue;
    bases_.push_back({&ticket, "buggy", &ticket.buggy_source});
    bases_.push_back({&ticket, "patched", &ticket.patched_source});
    if (!race && !ticket.latest_source.empty())
      bases_.push_back({&ticket, "latest", &ticket.latest_source});
    if (workload == Workload::kCommitStream &&
        ticket.case_id == "zk-1208-ephemeral-create" && !guarded.empty())
      bases_.push_back({&ticket, "guarded", &guarded});
  }
}

std::vector<Op> Stream::next_round() {
  lisa::support::Rng rng(rng_.next_u64());
  std::vector<Op> round;
  for (const Base& base : bases_) {
    std::vector<std::string> classes;
    if (workload_ == Workload::kIncidentIngest) {
      classes = {"identity"};
    } else {
      classes = {"identity", "append", "line-shift"};
      if (workload_ == Workload::kCommitStream &&
          base.ticket->kind == SemanticsKind::kStatePredicate)
        classes.push_back("target-rename");
    }
    for (const std::string& edit_class : classes) {
      Op op;
      op.ticket = base.ticket;
      op.version = base.version;
      op.edit_class = edit_class;
      op.source = *base.source;
      op.expect = expected_answer(*base.ticket, base.version);
      apply_edit(op, rng);
      round.push_back(std::move(op));
    }
  }
  rng.shuffle(round);
  return round;
}

std::string digest(const std::vector<Op>& round) {
  std::string all;
  for (const Op& op : round)
    all += op.key() + "|" + op.edit_detail + "|" +
           (op.expect == Expect::kBlock ? "block" : "admit") + "\n" + op.source + "\n";
  return lisa::support::fnv1a_fingerprint(all);
}

}  // namespace gatebench
