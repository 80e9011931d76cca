// fig7_sweep: the Figure-7 spec grid (5 policies x cache sizes 1..100,
// paper-default 100-state oracle Markov chain, prefetch_cache driver)
// fanned out over sweep_configs + run_sim, the path `simctl` uses. A
// closed batch of independent specs on at most 4 sweep threads; the
// planner and its memo tiers do most of the work.
#include <algorithm>
#include <memory>
#include <thread>

#include "common.hpp"
#include "layers.hpp"
#include "sim/grounded.hpp"
#include "sim/sweep.hpp"
#include "util/thread_pool.hpp"
#include "workload/markov_source.hpp"

namespace perfbench {

using namespace skp;

namespace {

constexpr std::size_t kRequestsPerSpec = 2'000;
// Chain replicates: cache size c runs on chain c mod kChains, so every
// policy still meets the same chain at each cache size while the run's
// aggregates average over kChains chains instead of one.
constexpr std::size_t kChains = 100;
constexpr int kSetupRepeats = 15;

std::size_t sweep_threads() {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(4, hw);
}

struct SpecRun {
  SimResult result;
  double seconds = 0.0;
  bool ok = false;
};

// One pass of the grid through sweep_configs; per-spec run_sim times.
std::vector<SpecRun> sweep_pass(ThreadPool& pool,
                                const std::vector<SimSpec>& specs) {
  return sweep_configs(pool, specs, [](const SimSpec& spec) {
    SpecRun run;
    const std::uint64_t t0 = now_ns();
    try {
      run.result = run_sim(spec);
      run.ok = true;
    } catch (const std::exception&) {
    }
    run.seconds = seconds_since(t0);
    return run;
  });
}

// Books a pass's requests and checks every spec against its committed
// digest; a spec that disagrees counts as wrong output.
void check_pass(const std::vector<SimSpec>& specs,
                const std::vector<SpecRun>& runs,
                const std::vector<std::string>& expected, Report& report) {
  for (std::size_t i = 0; i < specs.size(); ++i) {
    report.attempt(specs[i].requests);
    if (!runs[i].ok) {
      report.wrong(specs[i].requests,
                   "fig7_sweep spec " + std::to_string(i) + " threw");
    } else if (hex(digest(runs[i].result)) != expected[i]) {
      report.wrong(specs[i].requests,
                   "fig7_sweep spec " + std::to_string(i) +
                       " digest differs from the committed one");
    }
  }
}

SimSpec netsim_probe_spec(const SimSpec& base) {
  SimSpec spec;
  spec.driver = SimDriverKind::NetsimDes;
  spec.workload = base.workload;
  spec.seed = base.seed;
  spec.cache_size = 10;
  spec.requests = kRequestsPerSpec;
  return spec;
}

void run_traced(const Options& opt, const std::vector<SimSpec>& specs,
                const std::vector<std::string>& expected, ThreadPool& pool,
                Report& report) {
  LayerSummary s;
  std::vector<double> busy, overhead, other;
  Tracer loop_all;
  const std::uint64_t t_start = now_ns();
  for (int cycle = 0;
       cycle == 0 || seconds_since(t_start) < opt.seconds; ++cycle) {
    // Parallel pass (untraced): how busy the sweep threads are.
    std::uint64_t t0 = now_ns();
    const std::vector<SpecRun> par = sweep_pass(pool, specs);
    const double wall = seconds_since(t0);
    double spec_sum = 0.0;
    for (const SpecRun& r : par) spec_sum += r.seconds;
    busy.push_back(spec_sum /
                   (static_cast<double>(pool.thread_count()) * wall));
    check_pass(specs, par, expected, report);
    if (cycle == 0) {
      for (const SpecRun& r : par) s.counters.add(r.result);
    }

    // The same grid serially, untraced then as a traced replica.
    t0 = now_ns();
    for (const SimSpec& spec : specs) (void)run_sim(spec);
    const std::uint64_t untraced_ns = now_ns() - t0;

    Tracer loop;
    t0 = now_ns();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const SimResult replica =
          replay_prefetch_cache(specs[i], loop, s.classes, s.replica_requests);
      // Replica guard: the public-call loop must be run_sim's loop.
      if (!par[i].ok ||
          replica_digest(replica) != replica_digest(par[i].result)) {
        report.wrong(specs[i].requests,
                     "fig7_sweep replica of spec " + std::to_string(i) +
                         " differs from run_sim");
      }
    }
    const std::uint64_t traced_ns = now_ns() - t0;
    overhead.push_back(static_cast<double>(traced_ns) /
                           static_cast<double>(untraced_ns) -
                       1.0);
    other.push_back(note_accounting(report, "fig7_sweep", loop, traced_ns,
                                  /*print=*/cycle == 0));
    if (cycle == 0) write_spans(opt, "fig7_sweep-replica", loop);
    loop_all.merge(loop);
  }
  s.sweep_busy_frac = median(busy);
  s.overhead_frac = median(overhead);
  s.other_frac = median(other);
  s.probes.merge(loop_all);

  // Layers off this workload's path, replayed on its inputs.
  const SimSpec netsim = netsim_probe_spec(specs.front());
  replay_predictors(netsim.workload, kRequestsPerSpec, netsim.seed, s.probes);
  SimResult stepped;
  const auto snaps = replay_stepper(netsim, s.probes, &stepped);
  if (!replay_codecs(snaps, s.probes, s.codec_bytes) ||
      !replay_spec_codec(netsim, 200, s.probes)) {
    report.wrong(1, "fig7_sweep codec replay did not round-trip");
  }
  s.codec_steps = snaps.size();
  SimResult served;
  s.round_trip_ns =
      probe_daemon_round_trip_ns(opt.skpd_bin, netsim, s.probes, &served);
  if (digest(served) != digest(stepped)) {
    report.wrong(netsim.requests, "skpd probe session differs from the "
                                  "in-process stepper");
  }
  note_counters(report, "fig7_sweep", s.counters);
  emit_per_layer(report, s);
}

}  // namespace

std::vector<SimSpec> fig7_specs(std::uint64_t variant) {
  const struct {
    PrefetchPolicy policy;
    SubArbitration sub;
  } kPolicies[] = {
      {PrefetchPolicy::None, SubArbitration::None},
      {PrefetchPolicy::KP, SubArbitration::None},
      {PrefetchPolicy::SKP, SubArbitration::None},
      {PrefetchPolicy::SKP, SubArbitration::LFU},
      {PrefetchPolicy::SKP, SubArbitration::DS},
  };
  std::vector<SimSpec> specs;
  for (const auto& pol : kPolicies) {
    for (std::size_t cache_size = 1; cache_size <= 100; ++cache_size) {
      SimSpec spec;  // prefetch_cache driver, paper-default Markov source
      spec.policy = pol.policy;
      spec.sub = pol.sub;
      spec.cache_size = cache_size;
      spec.requests = kRequestsPerSpec;
      spec.seed = 1 + variant + kSeedVariants * (cache_size % kChains);
      specs.push_back(spec);
    }
  }
  return specs;
}

void run_fig7_sweep(const Options& opt, const DigestTable& digests,
                    Report& report) {
  const std::uint64_t variant = variant_of(opt.seed);
  const std::vector<std::string>* expected =
      digests.find("fig7_sweep", variant);
  std::vector<SimSpec> specs;
  std::unique_ptr<ThreadPool> pool;

  // Set-up: build the grid, start the sweep threads, and warm them up
  // on every tenth spec of the grid. Repeated; the median is reported.
  std::vector<double> setup;
  for (int k = 0; k < kSetupRepeats; ++k) {
    pool.reset();
    const std::uint64_t t0 = now_ns();
    specs = fig7_specs(variant);
    pool = std::make_unique<ThreadPool>(sweep_threads());
    std::vector<SimSpec> warm;
    for (std::size_t i = 0; i < specs.size(); i += 10) warm.push_back(specs[i]);
    (void)sweep_pass(*pool, warm);
    setup.push_back(seconds_since(t0));
  }
  if (expected == nullptr || expected->size() != specs.size()) {
    report.wrong(1, "no committed fig7_sweep digests for this variant");
    return;
  }

  if (opt.trace) {
    run_traced(opt, specs, *expected, *pool, report);
    return;
  }

  // Per pass: rates and step quantiles, summarised over the passes by
  // their quietest quartile. Session opens (building a spec's Markov
  // chain) are sampled between passes, so they see the same machine as
  // the passes.
  std::vector<double> req_rate, spec_rate, p50_us, p99_us, open_us;
  std::size_t step_samples = 0;
  Counters counters;
  const std::uint64_t t_start = now_ns();
  for (int pass = 0; pass == 0 || seconds_since(t_start) < opt.seconds;
       ++pass) {
    const std::uint64_t t0 = now_ns();
    const std::vector<SpecRun> runs = sweep_pass(*pool, specs);
    const double wall = seconds_since(t0);
    check_pass(specs, runs, *expected, report);
    std::uint64_t requests = 0;
    std::vector<double> spec_us;
    for (const SpecRun& r : runs) {
      requests += r.result.metrics.requests;
      spec_us.push_back(r.seconds * 1e6);
      if (pass == 0) counters.add(r.result);
    }
    step_samples += spec_us.size();
    req_rate.push_back(static_cast<double>(requests) / wall);
    spec_rate.push_back(static_cast<double>(specs.size()) / wall);
    p50_us.push_back(quantile(spec_us, 0.5));
    p99_us.push_back(quantile(spec_us, 0.99));
    for (std::size_t k = 0; k < 20; ++k) {
      const SimSpec& spec = specs[(20 * static_cast<std::size_t>(pass) + k) %
                                  specs.size()];
      const std::uint64_t t1 = now_ns();
      Rng build(spec.seed);
      const MarkovSource source(to_markov_config(spec.workload), build);
      open_us.push_back(seconds_since(t1) * 1e6);
    }
  }

  report.note("fig7_sweep: variant " + std::to_string(variant) + ", " +
              std::to_string(specs.size()) + " specs x " +
              std::to_string(kRequestsPerSpec) + " requests per pass, " +
              std::to_string(req_rate.size()) + " passes on " +
              std::to_string(pool->thread_count()) + " sweep threads; " +
              std::to_string(step_samples) + " step (spec) samples");
  EndToEnd e;
  e.requests_per_s = quiet_rate(req_rate);
  e.steps_per_s = quiet_rate(spec_rate);
  e.step_p50_us = quiet_time(p50_us);
  e.step_p99_us = quiet_time(p99_us);
  e.session_open_p50_us = median(open_us);
  e.setup_s = median(setup);
  e.peak_rss_mb = self_peak_rss_mb();
  e.counters = counters;
  emit_end_to_end(report, "fig7_sweep", e);
}

}  // namespace perfbench
