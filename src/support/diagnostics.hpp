#pragma once
// Error reporting shared by the DSL frontend and the synthesis passes.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace pmsched {

/// A position in DSL source text (1-based line/column, 0 meaning unknown).
struct SourceLoc {
  std::size_t line = 0;
  std::size_t column = 0;

  [[nodiscard]] std::string toString() const {
    if (line == 0) return "<unknown>";
    return std::to_string(line) + ":" + std::to_string(column);
  }
};

/// Raised by the frontend for malformed source text.
class ParseError : public std::runtime_error {
 public:
  ParseError(SourceLoc loc, const std::string& message)
      : std::runtime_error(loc.toString() + ": " + message), loc_(loc) {}

  [[nodiscard]] SourceLoc loc() const { return loc_; }

 private:
  SourceLoc loc_;
};

/// Raised by synthesis passes when the input violates a structural
/// precondition (cyclic graph, dangling operand, malformed mux, ...).
class SynthesisError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Raised when constraints (steps/resources) admit no schedule.
class InfeasibleError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Which resource of a RunBudget (or a hard engine limit) ran out.
enum class BudgetKind {
  Deadline,       ///< wall-clock deadline passed
  Cancelled,      ///< cooperative CancelToken fired
  Probes,         ///< oracle probe cap reached
  BddNodes,       ///< BddManager arena node cap reached
  DnfTerms,       ///< DnfEngine literal-arena cap reached
  RationalWidth,  ///< exact probability exceeds Rational's 62-bit denominator
  Fault,          ///< injected fault (tests / PMSCHED_FAULT)
};

[[nodiscard]] constexpr const char* budgetKindName(BudgetKind k) {
  switch (k) {
    case BudgetKind::Deadline: return "deadline";
    case BudgetKind::Cancelled: return "cancelled";
    case BudgetKind::Probes: return "probe-cap";
    case BudgetKind::BddNodes: return "bdd-node-cap";
    case BudgetKind::DnfTerms: return "dnf-term-cap";
    case BudgetKind::RationalWidth: return "rational-width";
    case BudgetKind::Fault: return "fault";
  }
  return "unknown";
}

/// Typed error for hard budget violations — the BudgetExceeded family the
/// CLI maps to its own exit code. Stages that can degrade catch it and
/// return a best-so-far result instead of letting it escape; `detail`
/// carries the kind-specific magnitude (support width for RationalWidth,
/// node count for BddNodes, ...).
class BudgetExceededError : public std::runtime_error {
 public:
  BudgetExceededError(BudgetKind kind, const std::string& message, std::uint64_t detail = 0)
      : std::runtime_error(std::string(budgetKindName(kind)) + ": " + message),
        kind_(kind),
        detail_(detail) {}

  [[nodiscard]] BudgetKind kind() const { return kind_; }
  [[nodiscard]] std::uint64_t detail() const { return detail_; }

 private:
  BudgetKind kind_;
  std::uint64_t detail_;
};

/// One structured diagnostic record: what the CLI prints (one line per
/// record, machine-grepped by the corpus/fault-matrix scripts) instead of a
/// raw what() string or an abort.
struct Diagnostic {
  std::string category;  ///< "usage" | "parse" | "budget" | "infeasible" | "internal"
  SourceLoc loc;         ///< 0/0 when not tied to source text
  std::string message;

  [[nodiscard]] std::string toString() const {
    std::string out = "error[" + category + "]";
    if (loc.line != 0) out.append(" ").append(loc.toString());
    return out + ": " + message;
  }
};

}  // namespace pmsched
