#include "core/skp_full.hpp"

#include <gtest/gtest.h>

#include "core/access_model.hpp"
#include "core/brute_force.hpp"
#include "test_util.hpp"

namespace skp {
namespace {

TEST(SkpFull, ClosesTheTheorem1Gap) {
  // The Theorem-1 validity-gap counterexample: canonical search reaches
  // g = 1, the full space reaches g = 2.8 with the non-canonical order
  // <1, 0>.
  Instance inst;
  inst.P = {0.6, 0.4};
  inst.r = {10.0, 1.0};
  inst.v = 5.0;
  const SkpSolution full = solve_skp_full(inst);
  EXPECT_DOUBLE_EQ(full.g, 2.8);
  EXPECT_EQ(full.F, (PrefetchList{1, 0}));
  EXPECT_DOUBLE_EQ(solve_skp(inst).g, 1.0);  // canonical search
}

TEST(SkpFull, MatchesFullBruteForceOnRandomGrid) {
  Rng rng(501);
  for (const std::size_t n : {2u, 4u, 6u, 8u, 10u, 12u}) {
    for (int trial = 0; trial < 40; ++trial) {
      testing::RandomInstanceOptions opt;
      opt.n = n;
      opt.v_hi = 30.0;  // small v: the regime where orders matter
      const Instance inst = testing::random_instance(rng, opt);
      const SkpSolution full = solve_skp_full(inst);
      const BruteForceResult bf = brute_force_skp(inst);
      EXPECT_NEAR(full.g, bf.g, 1e-9) << "n=" << n << " trial=" << trial;
    }
  }
}

TEST(SkpFull, NeverBelowCanonicalSolver) {
  Rng rng(503);
  for (int trial = 0; trial < 200; ++trial) {
    const Instance inst = testing::random_instance(rng);
    EXPECT_GE(solve_skp_full(inst).g, solve_skp(inst).g - 1e-9);
  }
}

TEST(SkpFull, ReturnedListValidAndConsistent) {
  Rng rng(505);
  for (int trial = 0; trial < 200; ++trial) {
    testing::RandomInstanceOptions opt;
    opt.n = 9;
    opt.v_hi = 40.0;
    const Instance inst = testing::random_instance(rng, opt);
    const SkpSolution sol = solve_skp_full(inst);
    EXPECT_TRUE(is_valid_prefetch_list(inst, sol.F));
    if (!sol.F.empty()) {
      EXPECT_NEAR(sol.g, access_improvement(inst, sol.F), 1e-9);
    }
  }
}

TEST(SkpFull, EmptyWhenNothingPays) {
  Instance inst;
  inst.P = {0.5, 0.5};
  inst.r = {100.0, 100.0};
  inst.v = 1.0;
  const SkpSolution sol = solve_skp_full(inst);
  EXPECT_TRUE(sol.F.empty());
  EXPECT_DOUBLE_EQ(sol.g, 0.0);
}

TEST(SkpFull, ZeroViewingTime) {
  Instance inst = testing::small_instance();
  inst.v = 0.0;
  EXPECT_TRUE(solve_skp_full(inst).F.empty());
}

TEST(SkpFull, ZeroProbabilityItemsNeverHelp) {
  // Because K must fit strictly within v (Eq. 1), a list ending in a
  // zero-probability z is dominated by K alone (K standalone has zero
  // stretch); the optimal full-space list never contains P = 0 items.
  Rng rng(509);
  for (int trial = 0; trial < 100; ++trial) {
    testing::RandomInstanceOptions opt;
    opt.n = 6;
    opt.v_hi = 25.0;
    Instance inst = testing::random_instance(rng, opt);
    // Zero out two probabilities and renormalize the rest.
    inst.P[1] = 0.0;
    inst.P[4] = 0.0;
    double mass = 0.0;
    for (const double p : inst.P) mass += p;
    for (double& p : inst.P) p /= mass;
    const SkpSolution sol = solve_skp_full(inst);
    for (const ItemId i : sol.F) {
      EXPECT_GT(inst.P[Instance::idx(i)], 0.0);
    }
  }
}

TEST(SkpFull, CandidateSubsetRespected) {
  const Instance inst = testing::small_instance();
  const std::vector<ItemId> cand{1, 2};
  const SkpSolution sol = solve_skp_full(inst, cand);
  for (const ItemId i : sol.F) {
    EXPECT_TRUE(i == 1 || i == 2);
  }
}

TEST(SkpFull, SearchEffortReported) {
  Rng rng(507);
  testing::RandomInstanceOptions opt;
  opt.n = 10;
  const Instance inst = testing::random_instance(rng, opt);
  EXPECT_GT(solve_skp_full(inst).forward_steps, 0u);
}

TEST(SkpFull, RejectsBadMass) {
  const Instance inst = testing::small_instance();
  EXPECT_THROW(solve_skp_full(inst, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace skp
