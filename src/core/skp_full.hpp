// Exact SKP over the *full* Eq.-(1) space (extension beyond the paper).
//
// Theorem 1 licenses restricting the search to canonical-order lists, but
// its exchange argument assumes the swapped list stays valid, which fails
// on instances like P = {.6, .4}, r = {10, 1}, v = 5 (optimal order
// <1, 0>, g = 2.8, vs the best canonical list's g = 1). This solver closes
// the gap: it forces each candidate z to be the last (possibly stretching)
// element in turn and solves the induced subproblem over K exactly:
//
//   maximize  sum_K P r + P_z r_z - (M - sum_K P) * (sum_K r + r_z - v)^+
//   over      K subseteq candidates \ {z},  sum_K r < v
//
// where M = total_prob_mass. Within a fixed z the order of K is
// irrelevant (only the set enters the objective), so DFS over canonical
// order with a Dantzig-style bound is exact. Worst case is exponential,
// like all exact knapsack search, but the bound keeps realistic catalog
// sizes (tens of items) fast; property tests pin equality with
// brute_force_skp.
#pragma once

#include <span>

#include "core/skp_solver.hpp"

namespace skp {

// Exact full-space SKP. Returns the best list (order matters: the last
// element is the forced z) or an empty list when prefetching nothing is
// optimal. `forward_steps` counts DFS nodes across all z subproblems.
SkpSolution solve_skp_full(const Instance& inst,
                           std::span<const ItemId> candidates,
                           double total_prob_mass = 1.0);
SkpSolution solve_skp_full(const Instance& inst,
                           double total_prob_mass = 1.0);

}  // namespace skp
