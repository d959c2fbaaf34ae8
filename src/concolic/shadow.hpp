// Symbolic shadow values for the concolic engine.
//
// The engine executes MiniLang concretely on Interp's shadow walk (driven by
// @test functions, per §3.2: "our tool utilizes existing tests to act as our
// input") while propagating a symbolic *shadow* alongside scalar values:
//   * reading `obj.field` yields shadow atom "obj<id>.field" — object
//     identity, not variable spelling, names the location;
//   * boolean operators and integer comparisons combine shadows into
//     formulas;
//   * values that flow through containers, arithmetic or a function return
//     lose their shadow (objects keep identity, so their later field reads
//     re-derive one).
// Branch decisions on shadowed guards become path-condition conjuncts.
#pragma once

#include <string>

#include "minilang/interp.hpp"
#include "minilang/value.hpp"
#include "smt/formula.hpp"

namespace lisa::concolic {

/// The concolic tag of one runtime value on Interp's shadow walk
/// (minilang/interp.hpp). At most one of the members is meaningful,
/// matching the value's dynamic type.
struct SymShadow final : minilang::ShadowTag {
  /// For bool values: formula over object-named atoms; null if untracked.
  smt::FormulaPtr bool_formula;
  /// For int values: the symbolic location name ("obj5.ttl"); empty if
  /// untracked.
  std::string int_var;

  [[nodiscard]] bool has_bool() const { return bool_formula != nullptr; }
  [[nodiscard]] bool has_int() const { return !int_var.empty(); }
};

/// Symbolic location name for a field of `object`.
[[nodiscard]] inline std::string field_var(const minilang::Object& object,
                                           const std::string& field) {
  return "obj" + std::to_string(object.object_id) + "." + field;
}

/// Symbolic nullness-indicator name for `object`.
[[nodiscard]] inline std::string null_var(const minilang::Object& object) {
  return "obj" + std::to_string(object.object_id) + "#null";
}

}  // namespace lisa::concolic
