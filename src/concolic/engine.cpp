#include "concolic/engine.hpp"

#include <memory>
#include <unordered_set>

#include "concolic/shadow.hpp"
#include "minilang/interp.hpp"
#include "minilang/printer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "smt/solver.hpp"
#include "support/strings.hpp"

namespace lisa::concolic {

using minilang::FuncDecl;
using minilang::InterpError;
using minilang::MiniThrow;
using minilang::Object;
using minilang::ObjectPtr;
using minilang::Program;
using minilang::Shadowed;
using minilang::ShadowPtr;
using minilang::StateAccess;
using minilang::Stmt;
using minilang::Value;
using smt::Atom;
using smt::CmpOp;
using smt::Formula;
using smt::FormulaPtr;

namespace {

/// Result of resolving a contract variable path against the live frame.
struct Resolution {
  bool ok = false;
  Value value;           // the resolved value
  ObjectPtr parent;      // object owning the leaf field (null for root paths)
  std::string leaf;      // leaf field name ("" for root paths)
};

CmpOp to_cmp(minilang::BinOp op) {
  switch (op) {
    case minilang::BinOp::kEq: return CmpOp::kEq;
    case minilang::BinOp::kNe: return CmpOp::kNe;
    case minilang::BinOp::kLt: return CmpOp::kLt;
    case minilang::BinOp::kLe: return CmpOp::kLe;
    case minilang::BinOp::kGt: return CmpOp::kGt;
    default: return CmpOp::kGe;
  }
}

}  // namespace

class Engine::Impl final : public minilang::ShadowPolicy {
 public:
  explicit Impl(const Program& program) : program_(program), interp_(program) {
    interp_.set_fuel(kFuel);
  }

  RunResult run(const std::string& test_name, const CheckConfig& config) {
    config_ = &config;
    result_ = RunResult{};
    path_condition_.clear();
    call_stack_.clear();
    solver_.set_budget(config.budget);
    obs::PhasedSmtCapture smt_capture(config.capture.ledger, config.capture.capture,
                                      "concolic");
    solver_.set_capture(config.capture.active() ? &smt_capture : nullptr);

    // Locate target statements and extract relevant field names.
    targets_.clear();
    program_.for_each_stmt([&](const FuncDecl& fn, const Stmt& stmt) {
      if (fn.has_annotation("test")) return;
      if (minilang::stmt_header_text(stmt).find(config.target_fragment) != std::string::npos)
        targets_.insert(stmt.id);
    });
    relevant_fields_.clear();
    contract_has_null_ = false;
    if (config.contract) {
      for (const std::string& var : config.contract->variables()) {
        if (support::ends_with(var, "#null")) {
          contract_has_null_ = true;
          continue;
        }
        const std::size_t dot = var.find_last_of('.');
        relevant_fields_.insert(dot == std::string::npos ? var : var.substr(dot + 1));
      }
    }

    try {
      if (program_.find_function(test_name) == nullptr)
        throw InterpError("unknown test: " + test_name);
      interp_.call_shadowed(test_name, *this);
      result_.test_passed = true;
    } catch (const MiniThrow& thrown) {
      result_.failure = thrown.value().to_display();
    } catch (const support::BudgetExhausted& exhausted) {
      // Structured resource outcome: the run is cut off, not broken.
      result_.budget_exhausted = true;
      result_.degraded_reason = exhausted.what();
    } catch (const minilang::StepLimitExceeded& limit) {
      result_.step_limit_hit = true;
      result_.degraded_reason = limit.what();
    } catch (const InterpError& error) {
      result_.failure = error.what();
    }
    (void)interp_.take_output();  // print() output is no part of a replay
    // The capture sink is stack-local to this call; detach before returning.
    solver_.set_capture(nullptr);
    return std::move(result_);
  }

 private:
  /// Step limit of one replay.
  static constexpr std::int64_t kFuel = 4'000'000;

  // -- Shadow policy: the hook points of Interp's shadow walk -----------------

  ShadowPtr field_read(const Object& object, const std::string& field,
                       const Value& value) override {
    // Derive a shadow from the field's identity-based location name.
    if (value.is_int()) {
      auto tag = std::make_shared<SymShadow>();
      tag->int_var = field_var(object, field);
      return tag;
    }
    if (value.is_bool())
      return bool_tag(Formula::make_atom(Atom::bool_var(field_var(object, field))));
    return nullptr;
  }

  ShadowPtr negate(const Shadowed& operand) override {
    if (!sym(operand).has_bool()) return nullptr;
    return bool_tag(Formula::negate(sym(operand).bool_formula));
  }

  ShadowPtr combine(minilang::BinOp op, const Shadowed& lhs, const Shadowed& rhs) override {
    using minilang::BinOp;
    switch (op) {
      case BinOp::kAnd:
      case BinOp::kOr:
        if (sym(lhs).has_bool() && sym(rhs).has_bool())
          return bool_tag(op == BinOp::kAnd
                              ? Formula::conj2(sym(lhs).bool_formula, sym(rhs).bool_formula)
                              : Formula::disj2(sym(lhs).bool_formula, sym(rhs).bool_formula));
        // lhs is a neutral concrete element (true for &&, false for ||).
        return sym(rhs).has_bool() ? rhs.shadow : nullptr;
      case BinOp::kEq:
      case BinOp::kNe:
        return bool_tag(equality_shadow(lhs, rhs, op == BinOp::kEq));
      default:
        return bool_tag(cmp_shadow(lhs, rhs, to_cmp(op)));
    }
  }

  void branch(const Shadowed& guard) override {
    ++result_.branches_total;
    const SymShadow& shadow = sym(guard);
    if (!shadow.has_bool() || !relevant(shadow.bool_formula)) return;
    if (config_->budget != nullptr && !config_->budget->charge_fork_point())
      throw support::BudgetExhausted(config_->budget->exhausted_reason());
    path_condition_.push_back(guard.value.as_bool() ? shadow.bool_formula
                                                    : Formula::negate(shadow.bool_formula));
    ++result_.branches_recorded;
  }

  void on_stmt(const Stmt& stmt, StateAccess& frame) override {
    ++result_.stmts_executed;
    if (targets_.count(stmt.id) > 0) on_target_hit(stmt, frame);
  }

  void enter(const FuncDecl& fn) override { call_stack_.push_back(fn.name); }
  void leave() override { call_stack_.pop_back(); }

  void charge_steps(std::int64_t steps) override {
    if (config_->budget != nullptr && !config_->budget->charge_steps(steps))
      throw support::BudgetExhausted(config_->budget->exhausted_reason());
  }

  /// Every tag on the walk is one this policy made.
  static const SymShadow& sym(const Shadowed& value) {
    static const SymShadow kUntracked;
    return value.shadow != nullptr ? static_cast<const SymShadow&>(*value.shadow) : kUntracked;
  }

  static ShadowPtr bool_tag(FormulaPtr formula) {
    if (formula == nullptr) return nullptr;
    auto tag = std::make_shared<SymShadow>();
    tag->bool_formula = std::move(formula);
    return tag;
  }

  // -- Relevance filter -----------------------------------------------------

  [[nodiscard]] bool relevant(const FormulaPtr& f) const {
    if (!config_->prune_irrelevant) return true;
    for (const std::string& var : f->variables()) {
      if (contract_has_null_ && support::ends_with(var, "#null")) return true;
      const std::size_t dot = var.find_last_of('.');
      const std::string field = dot == std::string::npos ? var : var.substr(dot + 1);
      if (relevant_fields_.count(field) > 0) return true;
    }
    return false;
  }

  // -- Contract instantiation at a target hit --------------------------------

  Resolution resolve_path(const std::string& path, StateAccess& frame) {
    Resolution res;
    std::vector<std::string> segments = support::split(path, '.');
    if (segments.empty()) return res;
    const Value* root = frame.lookup(segments[0]);
    if (root == nullptr) return res;
    Value current = *root;
    ObjectPtr parent;
    std::string leaf;
    for (std::size_t i = 1; i < segments.size(); ++i) {
      if (!current.is_object()) return res;
      parent = current.as_object();
      leaf = segments[i];
      const auto it = parent->fields.find(leaf);
      if (it == parent->fields.end()) return res;
      current = it->second;
    }
    res.ok = true;
    res.value = std::move(current);
    res.parent = std::move(parent);
    res.leaf = std::move(leaf);
    return res;
  }

  /// Instantiates one contract atom against the live frame. Sets
  /// `*instantiable` to false (and returns an opaque placeholder) when the
  /// atom's paths cannot be resolved to checkable locations.
  FormulaPtr instantiate_atom(const Atom& atom, StateAccess& frame, bool* instantiable,
                              bool* concrete) {
    const auto fail = [&] {
      *instantiable = false;
      return Formula::make_atom(Atom::bool_var("opaque:" + atom.key()));
    };
    if (atom.kind == Atom::Kind::kBoolVar) {
      if (support::ends_with(atom.lhs, "#null")) {
        const std::string path = atom.lhs.substr(0, atom.lhs.size() - 5);
        const Resolution res = resolve_path(path, frame);
        if (!res.ok) return fail();
        if (res.value.is_null()) {
          *concrete = *concrete && true;
          return Formula::truth(true);
        }
        if (!res.value.is_object()) return fail();
        return Formula::make_atom(Atom::bool_var(null_var(*res.value.as_object())));
      }
      const Resolution res = resolve_path(atom.lhs, frame);
      if (!res.ok || !res.value.is_bool()) return fail();
      if (res.parent == nullptr) {
        // Contract over a root boolean local: substitute its concrete value
        // (the paper's constant normalization).
        return Formula::truth(res.value.as_bool());
      }
      return Formula::make_atom(Atom::bool_var(field_var(*res.parent, res.leaf)));
    }
    if (atom.kind == Atom::Kind::kCmpConst) {
      const Resolution res = resolve_path(atom.lhs, frame);
      if (!res.ok || !res.value.is_int()) return fail();
      if (res.parent == nullptr)
        return Formula::truth(smt::cmp_holds(res.value.as_int(), atom.op, atom.rhs_const));
      return Formula::make_atom(
          Atom::cmp_const(field_var(*res.parent, res.leaf), atom.op, atom.rhs_const));
    }
    // kCmpVar: resolve both sides; fall back to constants where possible.
    const Resolution lhs = resolve_path(atom.lhs, frame);
    const Resolution rhs = resolve_path(atom.rhs_var, frame);
    if (!lhs.ok || !rhs.ok || !lhs.value.is_int() || !rhs.value.is_int()) return fail();
    const bool lhs_loc = lhs.parent != nullptr;
    const bool rhs_loc = rhs.parent != nullptr;
    if (lhs_loc && rhs_loc)
      return Formula::make_atom(Atom::cmp_var(field_var(*lhs.parent, lhs.leaf), atom.op,
                                              field_var(*rhs.parent, rhs.leaf)));
    if (lhs_loc)
      return Formula::make_atom(
          Atom::cmp_const(field_var(*lhs.parent, lhs.leaf), atom.op, rhs.value.as_int()));
    if (rhs_loc)
      return Formula::make_atom(Atom::cmp_const(field_var(*rhs.parent, rhs.leaf),
                                                smt::cmp_swap(atom.op), lhs.value.as_int()));
    return Formula::truth(smt::cmp_holds(lhs.value.as_int(), atom.op, rhs.value.as_int()));
  }

  FormulaPtr instantiate(const FormulaPtr& f, StateAccess& frame, bool* instantiable,
                         bool* concrete) {
    switch (f->kind) {
      case Formula::Kind::kTrue:
      case Formula::Kind::kFalse:
        return f;
      case Formula::Kind::kAtom:
        return instantiate_atom(f->atom, frame, instantiable, concrete);
      case Formula::Kind::kNot:
        return Formula::negate(instantiate(f->children[0], frame, instantiable, concrete));
      case Formula::Kind::kAnd:
      case Formula::Kind::kOr: {
        std::vector<FormulaPtr> children;
        children.reserve(f->children.size());
        for (const FormulaPtr& child : f->children)
          children.push_back(instantiate(child, frame, instantiable, concrete));
        return f->kind == Formula::Kind::kAnd ? Formula::conj(std::move(children))
                                              : Formula::disj(std::move(children));
      }
    }
    return f;
  }

  /// Evaluates the contract concretely on the live state (true = holds).
  /// Returns false into *ok when some atom is unresolvable.
  bool eval_contract_concrete(const FormulaPtr& f, StateAccess& frame, bool* ok) {
    switch (f->kind) {
      case Formula::Kind::kTrue: return true;
      case Formula::Kind::kFalse: return false;
      case Formula::Kind::kNot: return !eval_contract_concrete(f->children[0], frame, ok);
      case Formula::Kind::kAnd: {
        bool all = true;
        for (const FormulaPtr& child : f->children)
          all = eval_contract_concrete(child, frame, ok) && all;
        return all;
      }
      case Formula::Kind::kOr: {
        bool any = false;
        for (const FormulaPtr& child : f->children)
          any = eval_contract_concrete(child, frame, ok) || any;
        return any;
      }
      case Formula::Kind::kAtom: {
        const Atom& atom = f->atom;
        if (atom.kind == Atom::Kind::kBoolVar) {
          if (support::ends_with(atom.lhs, "#null")) {
            const Resolution res = resolve_path(atom.lhs.substr(0, atom.lhs.size() - 5), frame);
            if (!res.ok) { *ok = false; return true; }
            return res.value.is_null();
          }
          const Resolution res = resolve_path(atom.lhs, frame);
          if (!res.ok || !res.value.is_bool()) { *ok = false; return true; }
          return res.value.as_bool();
        }
        const Resolution lhs = resolve_path(atom.lhs, frame);
        if (!lhs.ok || !lhs.value.is_int()) { *ok = false; return true; }
        if (atom.kind == Atom::Kind::kCmpConst)
          return smt::cmp_holds(lhs.value.as_int(), atom.op, atom.rhs_const);
        const Resolution rhs = resolve_path(atom.rhs_var, frame);
        if (!rhs.ok || !rhs.value.is_int()) { *ok = false; return true; }
        return smt::cmp_holds(lhs.value.as_int(), atom.op, rhs.value.as_int());
      }
    }
    return true;
  }

  void on_target_hit(const Stmt& stmt, StateAccess& frame) {
    TargetHit hit;
    hit.stmt_id = stmt.id;
    hit.function = call_stack_.empty() ? "<top>" : call_stack_.back();
    hit.call_chain = call_stack_;
    hit.trace_condition = Formula::conj(path_condition_);
    if (config_->contract) {
      bool instantiable = true;
      bool concrete_ok = true;
      hit.instantiated_contract =
          instantiate(config_->contract, frame, &instantiable, &concrete_ok);
      hit.instantiable = instantiable;
      bool eval_ok = true;
      const bool holds = eval_contract_concrete(config_->contract, frame, &eval_ok);
      hit.concrete_violation = eval_ok && !holds;
      if (instantiable) {
        const smt::SolveResult check = solver_.solve(Formula::conj2(
            hit.trace_condition, Formula::negate(hit.instantiated_contract)));
        hit.symbolic_violation = check.sat();
        hit.inconclusive = check.unknown();
        if (check.sat()) {
          hit.witness = check.model.to_string();
          hit.witness_bools = check.model.bools;
          hit.witness_ints = check.model.ints;
        }
      }
    } else {
      hit.instantiated_contract = Formula::truth(true);
    }
    result_.hits.push_back(std::move(hit));
  }

  /// Shadow for ==/!= over the supported shapes; null when untrackable.
  static FormulaPtr equality_shadow(const Shadowed& lhs, const Shadowed& rhs, bool eq) {
    // Null comparison against an object: identity-named nullness atom. When
    // the non-null side is concretely null too, the comparison is concrete.
    const auto null_vs_object = [&](const Shadowed& null_side,
                                    const Shadowed& object_side) -> FormulaPtr {
      (void)null_side;
      if (!object_side.value.is_object()) return nullptr;
      FormulaPtr atom =
          Formula::make_atom(Atom::bool_var(null_var(*object_side.value.as_object())));
      return eq ? atom : Formula::negate(std::move(atom));
    };
    if (lhs.value.is_null() && (rhs.value.is_object() || rhs.value.is_null()))
      return null_vs_object(lhs, rhs);
    if (rhs.value.is_null() && (lhs.value.is_object() || lhs.value.is_null()))
      return null_vs_object(rhs, lhs);
    // Boolean equality: fold into the tracked side's formula.
    if (lhs.value.is_bool() && rhs.value.is_bool()) {
      const Shadowed* tracked = sym(lhs).has_bool() ? &lhs : (sym(rhs).has_bool() ? &rhs : nullptr);
      const Shadowed* other = tracked == &lhs ? &rhs : &lhs;
      if (tracked == nullptr) return nullptr;
      if (sym(*tracked).has_bool() && sym(*other).has_bool()) return nullptr;  // var==var: skip
      const bool want = other->value.as_bool() == eq;
      return want ? sym(*tracked).bool_formula : Formula::negate(sym(*tracked).bool_formula);
    }
    // Integer equality.
    if (lhs.value.is_int() && rhs.value.is_int())
      return cmp_shadow(lhs, rhs, eq ? CmpOp::kEq : CmpOp::kNe);
    return nullptr;
  }

  static FormulaPtr cmp_shadow(const Shadowed& lhs, const Shadowed& rhs, CmpOp op) {
    const bool lhs_sym = sym(lhs).has_int();
    const bool rhs_sym = sym(rhs).has_int();
    if (lhs_sym && rhs_sym)
      return Formula::make_atom(Atom::cmp_var(sym(lhs).int_var, op, sym(rhs).int_var));
    if (lhs_sym)
      return Formula::make_atom(Atom::cmp_const(sym(lhs).int_var, op, rhs.value.as_int()));
    if (rhs_sym)
      return Formula::make_atom(
          Atom::cmp_const(sym(rhs).int_var, smt::cmp_swap(op), lhs.value.as_int()));
    return nullptr;
  }

  const Program& program_;
  minilang::Interp interp_;
  const CheckConfig* config_ = nullptr;
  RunResult result_;
  smt::Solver solver_;
  std::vector<FormulaPtr> path_condition_;
  std::vector<std::string> call_stack_;
  std::unordered_set<int> targets_;
  std::unordered_set<std::string> relevant_fields_;
  bool contract_has_null_ = false;
};

Engine::Engine(const Program& program) : impl_(std::make_unique<Impl>(program)) {}
Engine::~Engine() = default;

RunResult Engine::run_test(const std::string& test_name, const CheckConfig& config) {
  obs::ScopedSpan span("concolic.run_test");
  span.attr("test", test_name);
  const RunResult result = impl_->run(test_name, config);
  // Fork-point accounting: every executed branch is a potential fork of the
  // symbolic path; recorded ones entered the trace condition π.
  obs::MetricsRegistry& registry = obs::metrics();
  registry.counter("concolic.tests_run").add();
  registry.counter("concolic.branches_total").add(result.branches_total);
  registry.counter("concolic.branches_recorded").add(result.branches_recorded);
  registry.counter("concolic.target_hits").add(static_cast<std::int64_t>(result.hits.size()));
  if (result.degraded()) registry.counter("concolic.degraded_runs").add();
  registry.histogram("concolic.test_ms").record(span.elapsed_ms());
  span.attr("passed", result.test_passed);
  span.attr("hits", result.hits.size());
  span.attr("branches_total", result.branches_total);
  span.attr("branches_recorded", result.branches_recorded);
  return result;
}

}  // namespace lisa::concolic
