// Backend selection for the 2K (JDD) objective.
//
// The dense JddObjective keeps a C x C difference matrix over degree
// classes — unbeatable per-swap cost, but O(C^2) memory.  Real
// million-edge graphs can carry tens of thousands of distinct degrees,
// where the matrix alone would need tens of gigabytes while only a few
// hundred thousand class-pair bins are ever occupied.  SparseJddObjective
// stores exactly the occupied bins in an open-addressing table, so its
// memory follows the graph, not the square of its degree diversity.
//
// Selection is automatic by default: the dense matrix is used while its
// projected footprint fits the configured memory budget
// (svc::RunContext::memory_budget_mb, CLI --memory-budget-mb), and the
// sparse backend takes over past it.  Both backends honour the same
// contract — distance()/apply()/revert()/commit()/sample_deviating_bin()
// — and drive bit-identical chains (same seed, same accepted swaps),
// so the switch is purely a memory/speed trade.  See docs/scaling.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace orbis::gen {

enum class ObjectiveBackend {
  automatic,  // dense while the matrix fits the budget, else sparse
  dense,      // force the C^2 difference matrix
  sparse,     // force the open-addressing bin table
};

/// Parses "auto" | "dense" | "sparse".  Unknown names throw
/// std::invalid_argument listing the valid spellings — the CLI must fail
/// loudly, never silently fall back.
ObjectiveBackend parse_objective_backend(std::string_view name);

std::string_view to_string(ObjectiveBackend backend) noexcept;

/// Projected allocation of the dense JddObjective for a class count:
/// the C^2 int32 difference matrix plus the C^2 uint32 deviating-set
/// backrefs.  This is what the automatic heuristic prices against the
/// budget.
std::size_t dense_jdd_objective_bytes(std::uint32_t num_classes) noexcept;

/// Resolves `automatic` against the memory budget (dense iff
/// dense_jdd_objective_bytes fits in memory_budget_mb); explicit
/// requests pass through unchanged.
ObjectiveBackend resolve_objective_backend(ObjectiveBackend requested,
                                           std::uint32_t num_classes,
                                           std::size_t memory_budget_mb);

}  // namespace orbis::gen
