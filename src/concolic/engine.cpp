#include "concolic/engine.hpp"

#include <unordered_map>
#include <unordered_set>

#include "concolic/shadow.hpp"
#include "minilang/interp.hpp"
#include "minilang/printer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "smt/solver.hpp"
#include "support/strings.hpp"

namespace lisa::concolic {

using minilang::Expr;
using minilang::FuncDecl;
using minilang::InterpError;
using minilang::MiniThrow;
using minilang::Object;
using minilang::ObjectPtr;
using minilang::Program;
using minilang::Stmt;
using minilang::StmtPtr;
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

class Engine::Impl {
 public:
  explicit Impl(const Program& program) : program_(program) {}

  RunResult run(const std::string& test_name, const CheckConfig& config) {
    config_ = &config;
    result_ = RunResult{};
    path_condition_.clear();
    call_stack_.clear();
    fuel_used_ = 0;
    next_object_id_ = 1;
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
      const FuncDecl* test = program_.find_function(test_name);
      if (test == nullptr) throw InterpError("unknown test: " + test_name);
      call_function(*test, {});
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
    // The capture sink is stack-local to this call; detach before returning.
    solver_.set_capture(nullptr);
    return std::move(result_);
  }

 private:
  struct Frame {
    std::vector<std::unordered_map<std::string, CValue>> scopes;
  };
  enum class Flow { kNormal, kReturn, kBreak, kContinue };

  void burn_fuel() {
    if (++fuel_used_ > 4'000'000) throw minilang::StepLimitExceeded(4'000'000);
    // Amortize the budget poll: a relaxed-atomic add every kStepStride
    // statements keeps the ungoverned hot path untouched.
    constexpr std::int64_t kStepStride = 256;
    if (config_->budget != nullptr && fuel_used_ % kStepStride == 0 &&
        !config_->budget->charge_steps(kStepStride))
      throw support::BudgetExhausted(config_->budget->exhausted_reason());
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

  Resolution resolve_path(const std::string& path, Frame& frame) {
    Resolution res;
    std::vector<std::string> segments = support::split(path, '.');
    if (segments.empty()) return res;
    const CValue* root = lookup(frame, segments[0]);
    if (root == nullptr) return res;
    Value current = root->v;
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
  FormulaPtr instantiate_atom(const Atom& atom, Frame& frame, bool* instantiable,
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

  FormulaPtr instantiate(const FormulaPtr& f, Frame& frame, bool* instantiable, bool* concrete) {
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
  bool eval_contract_concrete(const FormulaPtr& f, Frame& frame, bool* ok) {
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

  void on_target_hit(const Stmt& stmt, Frame& frame) {
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

  // -- Interpreter with shadow propagation -----------------------------------

  CValue* lookup(Frame& frame, const std::string& name) {
    for (auto it = frame.scopes.rbegin(); it != frame.scopes.rend(); ++it) {
      const auto found = it->find(name);
      if (found != it->end()) return &found->second;
    }
    return nullptr;
  }

  Value call_function(const FuncDecl& fn, std::vector<CValue> args) {
    if (args.size() != fn.params.size())
      throw InterpError("arity mismatch calling " + fn.name);
    if (call_stack_.size() > 200) throw InterpError("call depth limit in " + fn.name);
    call_stack_.push_back(fn.name);
    Frame frame;
    frame.scopes.emplace_back();
    for (std::size_t i = 0; i < args.size(); ++i)
      frame.scopes.back()[fn.params[i].name] = std::move(args[i]);
    Value return_value;
    try {
      exec_block(fn.body, frame, return_value);
    } catch (...) {
      call_stack_.pop_back();
      throw;
    }
    call_stack_.pop_back();
    return return_value;
  }

  Flow exec_block(const std::vector<StmtPtr>& stmts, Frame& frame, Value& return_value) {
    frame.scopes.emplace_back();
    Flow flow = Flow::kNormal;
    for (const StmtPtr& stmt : stmts) {
      flow = exec_stmt(*stmt, frame, return_value);
      if (flow != Flow::kNormal) break;
    }
    frame.scopes.pop_back();
    return flow;
  }

  bool branch(const Expr& guard, Frame& frame) {
    const CValue condition = eval(guard, frame);
    if (!condition.v.is_bool()) throw InterpError("condition is not a bool");
    const bool taken = condition.v.as_bool();
    ++result_.branches_total;
    if (condition.sym.has_bool() && relevant(condition.sym.bool_formula)) {
      if (config_->budget != nullptr && !config_->budget->charge_fork_point())
        throw support::BudgetExhausted(config_->budget->exhausted_reason());
      FormulaPtr recorded =
          taken ? condition.sym.bool_formula : Formula::negate(condition.sym.bool_formula);
      path_condition_.push_back(std::move(recorded));
      ++result_.branches_recorded;
    }
    return taken;
  }

  Flow exec_stmt(const Stmt& stmt, Frame& frame, Value& return_value) {
    burn_fuel();
    ++result_.stmts_executed;
    if (targets_.count(stmt.id) > 0) on_target_hit(stmt, frame);
    switch (stmt.kind) {
      case Stmt::Kind::kLet:
        frame.scopes.back()[stmt.name] = eval(*stmt.expr, frame);
        return Flow::kNormal;
      case Stmt::Kind::kAssign:
        assign_lvalue(*stmt.expr, eval(*stmt.expr2, frame), frame);
        return Flow::kNormal;
      case Stmt::Kind::kIf:
        if (branch(*stmt.expr, frame)) return exec_block(stmt.body, frame, return_value);
        return exec_block(stmt.else_body, frame, return_value);
      case Stmt::Kind::kWhile:
        while (branch(*stmt.expr, frame)) {
          burn_fuel();
          const Flow flow = exec_block(stmt.body, frame, return_value);
          if (flow == Flow::kReturn) return flow;
          if (flow == Flow::kBreak) break;
        }
        return Flow::kNormal;
      case Stmt::Kind::kReturn:
        if (stmt.expr) return_value = eval(*stmt.expr, frame).v;
        return Flow::kReturn;
      case Stmt::Kind::kThrow:
        throw MiniThrow(eval(*stmt.expr, frame).v);
      case Stmt::Kind::kExpr:
        eval(*stmt.expr, frame);
        return Flow::kNormal;
      case Stmt::Kind::kSync:
        eval(*stmt.expr, frame);
        return exec_block(stmt.body, frame, return_value);
      case Stmt::Kind::kSpawn:
        // Serial spawn semantics: the concolic walk runs the thread root
        // inline — single-schedule replay by construction (the schedule
        // explorer, not this engine, quantifies over interleavings).
        eval(*stmt.expr, frame);
        return Flow::kNormal;
      case Stmt::Kind::kBlock:
        return exec_block(stmt.body, frame, return_value);
      case Stmt::Kind::kTry: {
        try {
          return exec_block(stmt.body, frame, return_value);
        } catch (const MiniThrow& thrown) {
          frame.scopes.emplace_back();
          frame.scopes.back()[stmt.catch_var] = CValue(thrown.value());
          Flow flow = Flow::kNormal;
          for (const StmtPtr& handler : stmt.else_body) {
            flow = exec_stmt(*handler, frame, return_value);
            if (flow != Flow::kNormal) break;
          }
          frame.scopes.pop_back();
          return flow;
        }
      }
      case Stmt::Kind::kBreak: return Flow::kBreak;
      case Stmt::Kind::kContinue: return Flow::kContinue;
    }
    return Flow::kNormal;
  }

  void assign_lvalue(const Expr& lvalue, CValue value, Frame& frame) {
    switch (lvalue.kind) {
      case Expr::Kind::kVar: {
        CValue* slot = lookup(frame, lvalue.text);
        if (slot == nullptr) throw InterpError("assignment to undeclared " + lvalue.text);
        *slot = std::move(value);
        return;
      }
      case Expr::Kind::kField: {
        const CValue base = eval(*lvalue.args[0], frame);
        if (base.v.is_null())
          throw MiniThrow(Value::of_string("NullPointerException: field write ." + lvalue.text));
        if (!base.v.is_object()) throw InterpError("field write on non-object");
        base.v.as_object()->fields[lvalue.text] = std::move(value.v);
        return;
      }
      case Expr::Kind::kIndex: {
        const CValue base = eval(*lvalue.args[0], frame);
        const CValue index = eval(*lvalue.args[1], frame);
        if (base.v.is_list()) {
          auto& items = *base.v.as_list();
          const std::int64_t i = index.v.as_int();
          if (i < 0 || static_cast<std::size_t>(i) >= items.size())
            throw MiniThrow(Value::of_string("IndexOutOfBounds: " + std::to_string(i)));
          items[static_cast<std::size_t>(i)] = std::move(value.v);
          return;
        }
        if (base.v.is_map()) {
          const std::string key = index.v.is_string() ? index.v.as_string()
                                                      : std::to_string(index.v.as_int());
          (*base.v.as_map())[key] = std::move(value.v);
          return;
        }
        throw InterpError("index write on non-container");
      }
      default:
        throw InterpError("invalid assignment target");
    }
  }

  CValue eval(const Expr& expr, Frame& frame) {
    burn_fuel();
    switch (expr.kind) {
      case Expr::Kind::kIntLit: return CValue(Value::of_int(expr.int_value));
      case Expr::Kind::kBoolLit: return CValue(Value::of_bool(expr.bool_value));
      case Expr::Kind::kStrLit: return CValue(Value::of_string(expr.text));
      case Expr::Kind::kNullLit: return CValue(Value::null());
      case Expr::Kind::kVar: {
        CValue* slot = lookup(frame, expr.text);
        if (slot == nullptr) throw InterpError("unknown variable: " + expr.text);
        return *slot;
      }
      case Expr::Kind::kField: {
        const CValue base = eval(*expr.args[0], frame);
        if (base.v.is_null())
          throw MiniThrow(Value::of_string("NullPointerException: field read ." + expr.text));
        if (!base.v.is_object()) throw InterpError("field read on non-object: ." + expr.text);
        const Object& object = *base.v.as_object();
        const auto it = object.fields.find(expr.text);
        if (it == object.fields.end())
          throw InterpError("object " + object.struct_name + " has no field " + expr.text);
        CValue out(it->second);
        // Derive a shadow from the field's identity-based location name.
        if (out.v.is_int()) {
          out.sym.int_var = field_var(object, expr.text);
        } else if (out.v.is_bool()) {
          out.sym.bool_formula =
              Formula::make_atom(Atom::bool_var(field_var(object, expr.text)));
        }
        return out;
      }
      case Expr::Kind::kIndex: {
        const CValue base = eval(*expr.args[0], frame);
        const CValue index = eval(*expr.args[1], frame);
        if (base.v.is_list()) {
          const auto& items = *base.v.as_list();
          const std::int64_t i = index.v.as_int();
          if (i < 0 || static_cast<std::size_t>(i) >= items.size())
            throw MiniThrow(Value::of_string("IndexOutOfBounds: " + std::to_string(i)));
          return CValue(items[static_cast<std::size_t>(i)]);
        }
        if (base.v.is_map()) {
          const std::string key = index.v.is_string() ? index.v.as_string()
                                                      : std::to_string(index.v.as_int());
          const auto& map = *base.v.as_map();
          const auto it = map.find(key);
          return CValue(it == map.end() ? Value::null() : it->second);
        }
        if (base.v.is_null())
          throw MiniThrow(Value::of_string("NullPointerException: index access"));
        throw InterpError("index on non-container");
      }
      case Expr::Kind::kUnary: {
        CValue operand = eval(*expr.args[0], frame);
        if (expr.un_op == minilang::UnOp::kNot) {
          if (!operand.v.is_bool()) throw InterpError("'!' on non-bool");
          CValue out(Value::of_bool(!operand.v.as_bool()));
          if (operand.sym.has_bool())
            out.sym.bool_formula = Formula::negate(operand.sym.bool_formula);
          return out;
        }
        if (!operand.v.is_int()) throw InterpError("unary '-' on non-int");
        return CValue(Value::of_int(-operand.v.as_int()));
      }
      case Expr::Kind::kBinary: return eval_binary(expr, frame);
      case Expr::Kind::kCall: {
        const FuncDecl* fn = program_.find_function(expr.text);
        if (fn != nullptr) {
          std::vector<CValue> args;
          args.reserve(expr.args.size());
          for (const minilang::ExprPtr& arg : expr.args) args.push_back(eval(*arg, frame));
          return CValue(call_function(*fn, std::move(args)));
        }
        return call_builtin(expr, frame);
      }
      case Expr::Kind::kNew: {
        const minilang::StructDecl* decl = program_.find_struct(expr.text);
        if (decl == nullptr) throw InterpError("unknown struct: " + expr.text);
        auto object = std::make_shared<Object>();
        object->struct_name = expr.text;
        object->object_id = next_object_id_++;
        for (const minilang::FieldDecl& field : decl->fields) {
          switch (field.type->kind) {
            case minilang::Type::Kind::kInt: object->fields[field.name] = Value::of_int(0); break;
            case minilang::Type::Kind::kBool:
              object->fields[field.name] = Value::of_bool(false);
              break;
            case minilang::Type::Kind::kString:
              object->fields[field.name] = Value::of_string("");
              break;
            case minilang::Type::Kind::kList: object->fields[field.name] = Value::new_list(); break;
            case minilang::Type::Kind::kMap: object->fields[field.name] = Value::new_map(); break;
            default: object->fields[field.name] = Value::null(); break;
          }
        }
        for (std::size_t i = 0; i < expr.args.size(); ++i)
          object->fields[expr.field_names[i]] = eval(*expr.args[i], frame).v;
        return CValue(Value::of_object(std::move(object)));
      }
    }
    throw InterpError("unreachable expression kind");
  }

  CValue eval_binary(const Expr& expr, Frame& frame) {
    using minilang::BinOp;
    if (expr.bin_op == BinOp::kAnd || expr.bin_op == BinOp::kOr) {
      const bool is_and = expr.bin_op == BinOp::kAnd;
      CValue lhs = eval(*expr.args[0], frame);
      if (!lhs.v.is_bool()) throw InterpError("logic op on non-bool");
      if (lhs.v.as_bool() != is_and) return lhs;  // short-circuit: result is lhs
      CValue rhs = eval(*expr.args[1], frame);
      if (!rhs.v.is_bool()) throw InterpError("logic op on non-bool");
      CValue out(Value::of_bool(rhs.v.as_bool()));
      if (lhs.sym.has_bool() && rhs.sym.has_bool()) {
        out.sym.bool_formula = is_and
                                   ? Formula::conj2(lhs.sym.bool_formula, rhs.sym.bool_formula)
                                   : Formula::disj2(lhs.sym.bool_formula, rhs.sym.bool_formula);
      } else if (rhs.sym.has_bool()) {
        // lhs is a neutral concrete element (true for &&, false for ||).
        out.sym.bool_formula = rhs.sym.bool_formula;
      }
      return out;
    }
    CValue lhs = eval(*expr.args[0], frame);
    CValue rhs = eval(*expr.args[1], frame);
    switch (expr.bin_op) {
      case BinOp::kEq:
      case BinOp::kNe: {
        const bool eq = expr.bin_op == BinOp::kEq;
        const bool concrete = lhs.v.equals(rhs.v) == eq;
        CValue out(Value::of_bool(concrete));
        out.sym.bool_formula = equality_shadow(lhs, rhs, eq);
        return out;
      }
      case BinOp::kAdd:
        if (lhs.v.is_string() || rhs.v.is_string())
          return CValue(Value::of_string(lhs.v.to_display() + rhs.v.to_display()));
        if (lhs.v.is_int() && rhs.v.is_int())
          return CValue(Value::of_int(lhs.v.as_int() + rhs.v.as_int()));
        throw InterpError("'+' on incompatible operands");
      case BinOp::kSub:
      case BinOp::kMul:
      case BinOp::kDiv:
      case BinOp::kMod: {
        if (!lhs.v.is_int() || !rhs.v.is_int()) throw InterpError("arithmetic on non-int");
        const std::int64_t a = lhs.v.as_int();
        const std::int64_t b = rhs.v.as_int();
        switch (expr.bin_op) {
          case BinOp::kSub: return CValue(Value::of_int(a - b));
          case BinOp::kMul: return CValue(Value::of_int(a * b));
          case BinOp::kDiv:
            if (b == 0) throw MiniThrow(Value::of_string("ArithmeticException: divide by zero"));
            return CValue(Value::of_int(a / b));
          default:
            if (b == 0) throw MiniThrow(Value::of_string("ArithmeticException: mod by zero"));
            return CValue(Value::of_int(a % b));
        }
      }
      default: {  // relational
        if (lhs.v.is_string() && rhs.v.is_string()) {
          const int cmp = lhs.v.as_string().compare(rhs.v.as_string());
          const CmpOp op = to_cmp(expr.bin_op);
          return CValue(Value::of_bool(smt::cmp_holds(cmp, op, 0)));
        }
        if (!lhs.v.is_int() || !rhs.v.is_int())
          throw InterpError("comparison on incompatible types");
        const CmpOp op = to_cmp(expr.bin_op);
        CValue out(Value::of_bool(smt::cmp_holds(lhs.v.as_int(), op, rhs.v.as_int())));
        out.sym.bool_formula = cmp_shadow(lhs, rhs, op);
        return out;
      }
    }
  }

  /// Shadow for ==/!= over the supported shapes; null when untrackable.
  FormulaPtr equality_shadow(const CValue& lhs, const CValue& rhs, bool eq) {
    // Null comparison against an object: identity-named nullness atom. When
    // the non-null side is concretely null too, the comparison is concrete.
    const auto null_vs_object = [&](const CValue& null_side,
                                    const CValue& object_side) -> FormulaPtr {
      (void)null_side;
      if (!object_side.v.is_object()) return nullptr;
      FormulaPtr atom = Formula::make_atom(Atom::bool_var(null_var(*object_side.v.as_object())));
      return eq ? atom : Formula::negate(std::move(atom));
    };
    if (lhs.v.is_null() && (rhs.v.is_object() || rhs.v.is_null()))
      return null_vs_object(lhs, rhs);
    if (rhs.v.is_null() && (lhs.v.is_object() || lhs.v.is_null()))
      return null_vs_object(rhs, lhs);
    // Boolean equality: fold into the tracked side's formula.
    if (lhs.v.is_bool() && rhs.v.is_bool()) {
      const CValue* tracked = lhs.sym.has_bool() ? &lhs : (rhs.sym.has_bool() ? &rhs : nullptr);
      const CValue* other = tracked == &lhs ? &rhs : &lhs;
      if (tracked == nullptr) return nullptr;
      if (tracked->sym.has_bool() && other->sym.has_bool()) return nullptr;  // var==var: skip
      const bool want = other->v.as_bool() == eq;
      return want ? tracked->sym.bool_formula : Formula::negate(tracked->sym.bool_formula);
    }
    // Integer equality.
    if (lhs.v.is_int() && rhs.v.is_int())
      return cmp_shadow(lhs, rhs, eq ? CmpOp::kEq : CmpOp::kNe);
    return nullptr;
  }

  FormulaPtr cmp_shadow(const CValue& lhs, const CValue& rhs, CmpOp op) {
    const bool lhs_sym = lhs.sym.has_int();
    const bool rhs_sym = rhs.sym.has_int();
    if (lhs_sym && rhs_sym)
      return Formula::make_atom(Atom::cmp_var(lhs.sym.int_var, op, rhs.sym.int_var));
    if (lhs_sym)
      return Formula::make_atom(Atom::cmp_const(lhs.sym.int_var, op, rhs.v.as_int()));
    if (rhs_sym)
      return Formula::make_atom(
          Atom::cmp_const(rhs.sym.int_var, smt::cmp_swap(op), lhs.v.as_int()));
    return nullptr;
  }

  CValue call_builtin(const Expr& expr, Frame& frame) {
    const std::string& name = expr.text;
    std::vector<CValue> args;
    args.reserve(expr.args.size());
    for (const minilang::ExprPtr& arg : expr.args) args.push_back(eval(*arg, frame));
    const auto need = [&](std::size_t n) {
      if (args.size() != n)
        throw InterpError("builtin " + name + " expects " + std::to_string(n) + " args");
    };
    if (minilang::blocking_builtins().count(name) > 0) {
      now_ms_ += 5;
      return CValue(Value::null());
    }
    if (name == "print" || name == "log") return CValue(Value::null());
    if (name == "len") {
      need(1);
      const Value& v = args[0].v;
      if (v.is_list()) return CValue(Value::of_int(static_cast<std::int64_t>(v.as_list()->size())));
      if (v.is_map()) return CValue(Value::of_int(static_cast<std::int64_t>(v.as_map()->size())));
      if (v.is_string())
        return CValue(Value::of_int(static_cast<std::int64_t>(v.as_string().size())));
      throw InterpError("len() on non-container");
    }
    if (name == "list_new") return CValue(Value::new_list());
    if (name == "map_new") return CValue(Value::new_map());
    if (name == "push") {
      need(2);
      args[0].v.as_list()->push_back(args[1].v);
      return CValue(Value::null());
    }
    const auto key_of = [](const CValue& k) {
      return k.v.is_string() ? k.v.as_string() : std::to_string(k.v.as_int());
    };
    if (name == "put") {
      need(3);
      (*args[0].v.as_map())[key_of(args[1])] = args[2].v;
      return CValue(Value::null());
    }
    if (name == "get") {
      need(2);
      const auto& map = *args[0].v.as_map();
      const auto it = map.find(key_of(args[1]));
      return CValue(it == map.end() ? Value::null() : it->second);
    }
    if (name == "has") {
      need(2);
      return CValue(Value::of_bool(args[0].v.as_map()->count(key_of(args[1])) > 0));
    }
    if (name == "del") {
      need(2);
      args[0].v.as_map()->erase(key_of(args[1]));
      return CValue(Value::null());
    }
    if (name == "keys") {
      need(1);
      Value out = Value::new_list();
      for (const auto& [key, value] : *args[0].v.as_map()) {
        (void)value;
        out.as_list()->push_back(Value::of_string(key));
      }
      return CValue(std::move(out));
    }
    if (name == "contains") {
      need(2);
      for (const Value& item : *args[0].v.as_list())
        if (item.equals(args[1].v)) return CValue(Value::of_bool(true));
      return CValue(Value::of_bool(false));
    }
    if (name == "str") {
      need(1);
      return CValue(Value::of_string(args[0].v.to_display()));
    }
    if (name == "min" || name == "max") {
      need(2);
      const std::int64_t a = args[0].v.as_int();
      const std::int64_t b = args[1].v.as_int();
      return CValue(Value::of_int(name == "min" ? std::min(a, b) : std::max(a, b)));
    }
    if (name == "abs") {
      need(1);
      const std::int64_t a = args[0].v.as_int();
      return CValue(Value::of_int(a < 0 ? -a : a));
    }
    if (name == "assert") {
      if (args.empty() || !args[0].v.is_bool()) throw InterpError("assert() expects a bool");
      if (!args[0].v.as_bool()) {
        std::string message = "assertion failed";
        if (args.size() > 1) message += ": " + args[1].v.to_display();
        throw MiniThrow(Value::of_string(message));
      }
      return CValue(Value::null());
    }
    if (name == "now") {
      need(0);
      return CValue(Value::of_int(now_ms_));
    }
    if (name == "advance_clock") {
      need(1);
      now_ms_ += args[0].v.as_int();
      return CValue(Value::null());
    }
    throw InterpError("unknown function or builtin: " + name);
  }

  const Program& program_;
  const CheckConfig* config_ = nullptr;
  RunResult result_;
  smt::Solver solver_;
  std::vector<FormulaPtr> path_condition_;
  std::vector<std::string> call_stack_;
  std::unordered_set<int> targets_;
  std::unordered_set<std::string> relevant_fields_;
  bool contract_has_null_ = false;
  std::int64_t fuel_used_ = 0;
  std::int64_t now_ms_ = 0;
  std::uint64_t next_object_id_ = 1;
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
