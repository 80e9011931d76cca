// learned_des helpers shared with the digest writer: running specs in a
// forked worker process under a per-spec wall budget.
#pragma once

#include <sys/types.h>

#include <optional>
#include <vector>

#include "layers.hpp"
#include "sim/runtime.hpp"

namespace perfbench {

// Per-spec wall budget of learned_des (also in BENCHMARK.json's
// workload description). A spec still running at the budget is stopped
// and its requests count as failed.
inline constexpr double kSpecBudgetS = 0.25;

// What the worker reports per spec (plain data, sent through a pipe).
struct ChildResult {
  double run_s = 0.0;  // run_sim wall time inside the worker
  std::uint64_t digest = 0;
  Counters counters;
  int ok = 0;  // run_sim returned; else `error` holds its exception
  char error[160] = {};
};

// A forked worker process that runs specs of `specs` on request. A spec
// still running at its budget cannot be stopped inside a thread, so the
// worker is killed, reaped and replaced by a fresh fork. Construct and
// use only while this process runs no other threads; `specs` must
// outlive the worker.
class SpecWorker {
 public:
  explicit SpecWorker(const std::vector<skp::SimSpec>& specs);
  ~SpecWorker();
  SpecWorker(const SpecWorker&) = delete;
  SpecWorker& operator=(const SpecWorker&) = delete;

  // Runs specs[i]; std::nullopt when it exceeded `budget_s`.
  std::optional<ChildResult> run(std::size_t i, double budget_s);

 private:
  void start();
  void stop(bool kill);

  const std::vector<skp::SimSpec>& specs_;
  pid_t pid_ = -1;
  int cmd_fd_ = -1;  // parent -> worker: spec indices
  int res_fd_ = -1;  // worker -> parent: ChildResult
};

}  // namespace perfbench
