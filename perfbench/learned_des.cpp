// learned_des: netsim_des and multi_client specs with learned
// predictors (ppm, lz78, markov1, depgraph) over the default 100-item
// catalog, with time-varying links, fault injection with retries, the
// overload controller, churn and flash-crowd alignment. Learned rows
// change after every observation, so the plan memo tiers are bypassed
// and every request runs a full solve.
//
// Each spec runs in a forked worker process under a wall budget: the
// last spec, a flash-crowd learned fleet, does not finish in any budget
// today (see perfbench/README.md, "Known defect"), and a process can be
// stopped where a thread cannot.
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "common.hpp"
#include "layers.hpp"
#include "learned.hpp"
#include "sim/catalog.hpp"

namespace perfbench {

using namespace skp;

namespace {

// Reads or writes exactly n bytes; false on EOF or error.
bool write_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t k = ::write(fd, p, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t k = ::read(fd, p, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

[[noreturn]] void worker_main(const std::vector<SimSpec>& specs, int cmd_fd,
                              int res_fd) {
  std::uint64_t i = 0;
  while (read_all(cmd_fd, &i, sizeof i)) {
    ChildResult cr;
    try {
      const std::uint64_t t0 = now_ns();
      const SimResult r = run_sim(specs.at(i));
      cr.run_s = seconds_since(t0);
      cr.digest = digest(r);
      cr.counters.add(r, /*has_link=*/true);
      cr.ok = 1;
    } catch (const std::exception& e) {
      std::snprintf(cr.error, sizeof cr.error, "%s", e.what());
    }
    if (!write_all(res_fd, &cr, sizeof cr)) break;
  }
  ::_exit(0);
}

}  // namespace

SpecWorker::SpecWorker(const std::vector<SimSpec>& specs) : specs_(specs) {
  start();
}

SpecWorker::~SpecWorker() { stop(/*kill=*/false); }

void SpecWorker::start() {
  int cmd[2], res[2];
  if (::pipe(cmd) != 0 || ::pipe(res) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    ::close(cmd[1]);
    ::close(res[0]);
    worker_main(specs_, cmd[0], res[1]);
  }
  ::close(cmd[0]);
  ::close(res[1]);
  pid_ = pid;
  cmd_fd_ = cmd[1];
  res_fd_ = res[0];
}

void SpecWorker::stop(bool kill) {
  if (pid_ < 0) return;
  // Closing the command pipe ends an idle worker's loop.
  ::close(cmd_fd_);
  ::close(res_fd_);
  if (kill) ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

std::optional<ChildResult> SpecWorker::run(std::size_t i, double budget_s) {
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(budget_s * 1e9);
  const std::uint64_t index = i;
  ChildResult cr;
  bool done = write_all(cmd_fd_, &index, sizeof index);
  if (done) {
    done = false;
    for (;;) {
      const std::uint64_t now = now_ns();
      if (now >= deadline) break;
      pollfd p{res_fd_, POLLIN, 0};
      const int ms = static_cast<int>((deadline - now) / 1'000'000) + 1;
      const int rc = ::poll(&p, 1, ms);
      if (rc < 0 && errno == EINTR) continue;
      // The worker writes its whole report at once, after run_sim.
      if (rc > 0) done = read_all(res_fd_, &cr, sizeof cr);
      break;
    }
  }
  if (!done) {
    stop(/*kill=*/true);
    start();
    return std::nullopt;
  }
  return cr;
}

namespace {

constexpr int kSetupRepeats = 15;

// Simulated user requests in a spec (every client's, for multi_client).
std::uint64_t spec_requests(const SimSpec& spec) {
  if (spec.driver != SimDriverKind::MultiClientDes) return spec.requests;
  return spec.requests * spec.multi_client.clients;
}

bool is_netsim(const SimSpec& spec) {
  return spec.driver == SimDriverKind::NetsimDes;
}

// The hostile-world sections shared by every spec but the last.
SimSpec hostile(SimDriverKind driver, PredictorKind predictor,
                std::uint64_t seed) {
  SimSpec spec;
  spec.driver = driver;
  spec.predictor = predictor;
  spec.predictor_min_prob = 0.02;
  spec.predictor_warmup = 32;
  spec.link_schedule = {{240.0, 1.0, 0.0}, {80.0, 0.25, 2.0}};
  spec.fault.fail_rate = 0.15;
  spec.fault.stall_rate = 0.2;
  spec.fault.stall_factor = 4.0;
  spec.fault.timeout = 60.0;
  spec.fault.retry = {3, 1.0, 2.0, 0.1};
  spec.overload.enabled = true;
  spec.overload.window = 32;
  spec.deadline = 40.0;
  spec.seed = seed;
  return spec;
}

std::vector<MultiClientOverride> fleet() {
  std::vector<MultiClientOverride> out(4);
  out[0].predictor = PredictorKind::Ppm;
  out[1].predictor = PredictorKind::Lz78;
  out[2].predictor = PredictorKind::Markov1;
  out[3].predictor = PredictorKind::DependencyWindow;
  return out;
}

struct Pass {
  std::uint64_t requests = 0;  // of completed specs
  double run_s = 0.0;          // their run_sim time
  std::size_t completed = 0;
};

// Runs one spec in the worker under the budget and checks it; returns
// the worker's report when the spec completed.
std::optional<ChildResult> run_checked(SpecWorker& worker,
                                       const SimSpec& spec, std::size_t i,
                                       const std::string& expected,
                                       Report& report) {
  const std::uint64_t requests = spec_requests(spec);
  report.attempt(requests);
  const std::optional<ChildResult> cr = worker.run(i, kSpecBudgetS);
  const std::string name = "learned_des spec " + std::to_string(i);
  if (!cr) {
    report.fail(requests, name + " exceeded its " +
                              std::to_string(kSpecBudgetS) + " s budget");
    return std::nullopt;
  }
  if (!cr->ok) {
    report.wrong(requests, name + " threw: " + cr->error);
    return std::nullopt;
  }
  if (expected == "-") {
    report.note(name + " completed but has no committed digest; "
                       "regenerate the table");
  } else if (hex(cr->digest) != expected) {
    report.wrong(requests, name + " digest differs from the committed one");
  }
  return cr;
}

void run_traced(const Options& opt, const std::vector<SimSpec>& specs,
                const std::vector<std::string>& expected, SpecWorker& worker,
                Report& report) {
  LayerSummary s;
  std::vector<double> busy, overhead, other;
  std::vector<NetsimStepSnapshot> snaps0;
  const std::uint64_t t_start = now_ns();
  for (int cycle = 0;
       cycle == 0 || seconds_since(t_start) < opt.seconds; ++cycle) {
    Tracer loop;
    std::uint64_t stepped_ns = 0, untraced_ns = 0;
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const SimSpec& spec = specs[i];
      if (!is_netsim(spec)) {
        const std::uint64_t ts = now_ns();
        const auto cr = run_checked(worker, spec, i, expected[i], report);
        loop.record(cr ? Layer::kRunSim : Layer::kOverBudget, ts, now_ns(),
                    static_cast<std::uint32_t>(i));
        if (cr && cycle == 0) s.counters.add(cr->counters);
        continue;
      }
      report.attempt(spec.requests);
      SimResult result;
      const std::uint64_t ts = now_ns();
      auto snaps = replay_stepper(spec, loop, &result);
      stepped_ns += now_ns() - ts;
      if (hex(digest(result)) != expected[i]) {
        report.wrong(spec.requests, "learned_des stepped spec " +
                                        std::to_string(i) +
                                        " differs from the committed digest");
      }
      if (cycle == 0) {
        s.counters.add(result, /*has_link=*/true);
        if (i == 0) snaps0 = std::move(snaps);
      }
    }
    const std::uint64_t traced_ns = now_ns() - t0;
    // The stepped specs again, untraced, for the tracing overhead.
    for (const SimSpec& spec : specs) {
      if (!is_netsim(spec)) continue;
      const std::uint64_t ts = now_ns();
      (void)run_sim(spec);
      untraced_ns += now_ns() - ts;
    }
    overhead.push_back(static_cast<double>(stepped_ns) /
                           static_cast<double>(untraced_ns) -
                       1.0);
    busy.push_back(static_cast<double>(loop.total_ns(Layer::kSessionCtor) +
                                       loop.total_ns(Layer::kSimStep) +
                                       loop.total_ns(Layer::kRunSim) +
                                       loop.total_ns(Layer::kOverBudget)) /
                   static_cast<double>(traced_ns));
    other.push_back(note_accounting(report, "learned_des", loop, traced_ns,
                                  /*print=*/cycle == 0));
    if (cycle == 0) write_spans(opt, "learned_des-steps", loop);
    s.probes.merge(loop);
  }
  s.sweep_busy_frac = median(busy);
  s.overhead_frac = median(overhead);
  s.other_frac = median(other);

  // The planner and cache under learned rows: a prefetch_cache proxy
  // (the solo loop has no link schedule, faults or overload) over the
  // same catalog, once per learned predictor, with the workload's
  // probability floor. prefetch_cache has no observe-only prefix, so
  // the warmup requests are left out of its metrics instead.
  const SimSpec& first = specs.front();
  Tracer replica;
  for (const PredictorKind kind :
       {PredictorKind::Ppm, PredictorKind::Lz78, PredictorKind::Markov1,
        PredictorKind::DependencyWindow}) {
    SimSpec spec;
    spec.workload = first.workload;
    spec.seed = first.seed;
    spec.predictor = kind;
    spec.predictor_min_prob = first.predictor_min_prob;
    spec.warmup = first.predictor_warmup;
    spec.requests = first.requests;
    const SimResult r =
        replay_prefetch_cache(spec, replica, s.classes, s.replica_requests);
    if (replica_digest(r) != replica_digest(run_sim(spec))) {
      report.wrong(spec.requests,
                   std::string("learned_des replica differs from run_sim "
                               "for predictor ") +
                       to_string(kind));
    }
  }
  write_spans(opt, "learned_des-replica", replica);
  s.probes.merge(replica);
  replay_predictors(first.workload, first.requests, first.seed, s.probes);
  if (!replay_codecs(snaps0, s.probes, s.codec_bytes) ||
      !replay_spec_codec(first, 200, s.probes)) {
    report.wrong(1, "learned_des codec replay did not round-trip");
  }
  s.codec_steps = snaps0.size();
  SimResult served;
  s.round_trip_ns =
      probe_daemon_round_trip_ns(opt.skpd_bin, first, s.probes, &served);
  if (hex(digest(served)) != expected.front()) {
    report.wrong(first.requests, "skpd probe session differs from the "
                                 "committed digest");
  }
  note_counters(report, "learned_des", s.counters);
  emit_per_layer(report, s);
}

}  // namespace

std::vector<SimSpec> learned_specs(std::uint64_t variant) {
  // kReplicates seeds per spec shape, so a run's aggregates average
  // over several catalogs and trajectories.
  constexpr std::size_t kReplicates = 24;
  std::uint64_t seed = 1000 * (variant + 1);
  std::vector<SimSpec> specs;
  for (std::size_t rep = 0; rep < kReplicates; ++rep) {
    for (const PredictorKind kind :
         {PredictorKind::Ppm, PredictorKind::Lz78, PredictorKind::Markov1,
          PredictorKind::DependencyWindow}) {
      SimSpec spec = hostile(SimDriverKind::NetsimDes, kind, seed++);
      spec.requests = 1'000;
      specs.push_back(spec);
    }
    {
      // Churning homogeneous fleet.
      SimSpec spec =
          hostile(SimDriverKind::MultiClientDes, PredictorKind::Ppm, seed++);
      spec.requests = 250;
      spec.multi_client.clients = 4;
      spec.multi_client.churn_period = 500.0;
      spec.multi_client.churn_downtime = 60.0;
      specs.push_back(spec);
    }
    {
      // Mixed learned fleet, independent phases.
      SimSpec spec =
          hostile(SimDriverKind::MultiClientDes, PredictorKind::Oracle, seed++);
      spec.requests = 250;
      spec.multi_client.clients = 4;
      spec.multi_client.overrides = fleet();
      specs.push_back(spec);
    }
    {
      // Fully aligned flash crowd.
      SimSpec spec = hostile(SimDriverKind::MultiClientDes,
                             PredictorKind::Markov1, seed++);
      spec.requests = 250;
      spec.multi_client.clients = 3;
      spec.multi_client.phase_align = 1.0;
      specs.push_back(spec);
    }
  }
  {
    // The flash-crowd learned fleet (partial alignment): the known SKP
    // search blow-up. Plain sections, exactly the reported reproducer.
    SimSpec spec;
    spec.driver = SimDriverKind::MultiClientDes;
    spec.requests = 200;
    spec.seed = seed;
    spec.multi_client.clients = 4;
    spec.multi_client.phase_align = 0.5;
    spec.multi_client.overrides = fleet();
    specs.push_back(spec);
  }
  return specs;
}

void run_learned_des(const Options& opt, const DigestTable& digests,
                     Report& report) {
  const std::uint64_t variant = variant_of(opt.seed);
  const std::vector<std::string>* expected =
      digests.find("learned_des", variant);

  // Set-up: build the specs, intern the netsim specs' shared catalogs
  // (the forked worker inherits them), start the worker and warm it up
  // on the first spec. Repeated; the median is reported.
  std::vector<SimSpec> specs;
  std::vector<std::shared_ptr<const SharedCatalog>> catalogs;
  std::unique_ptr<SpecWorker> worker;
  std::vector<double> setup;
  for (int k = 0; k < kSetupRepeats; ++k) {
    worker.reset();
    catalogs.clear();
    const std::uint64_t t0 = now_ns();
    specs = learned_specs(variant);
    for (const SimSpec& spec : specs) {
      if (is_netsim(spec)) catalogs.push_back(SharedCatalog::acquire(spec));
    }
    worker = std::make_unique<SpecWorker>(specs);
    (void)worker->run(0, kSpecBudgetS);
    setup.push_back(seconds_since(t0));
  }
  if (expected == nullptr || expected->size() != specs.size()) {
    report.wrong(1, "no committed learned_des digests for this variant");
    return;
  }

  if (opt.trace) {
    run_traced(opt, specs, *expected, *worker, report);
    return;
  }

  // Per pass: rates, summarised over the passes by their quietest
  // quartile. Step quantiles are taken over the specs of each spec's
  // quiet time over the passes, so a stall of the machine during one
  // run of a spec moves that run, not the tail. Session opens (a
  // NetsimStepper over a learned spec, with the catalogs interned by
  // the set-up, as a daemon holds them) are sampled between passes.
  std::vector<double> req_rate, spec_rate, open_us;
  std::vector<std::vector<double>> spec_us(specs.size());
  std::size_t step_samples = 0;
  Counters counters;
  const std::uint64_t t_start = now_ns();
  for (int pass = 0; pass == 0 || seconds_since(t_start) < opt.seconds;
       ++pass) {
    Pass p;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto cr = run_checked(*worker, specs[i], i, (*expected)[i],
                                  report);
      if (!cr) continue;
      p.requests += spec_requests(specs[i]);
      p.run_s += cr->run_s;
      ++p.completed;
      spec_us[i].push_back(cr->run_s * 1e6);
      ++step_samples;
      if (pass == 0) counters.add(cr->counters);
    }
    for (int k = 0; k < 8; ++k) {
      for (const SimSpec& spec : specs) {
        if (!is_netsim(spec)) continue;
        const std::uint64_t t0 = now_ns();
        const NetsimStepper stepper(spec);
        open_us.push_back(seconds_since(t0) * 1e6);
      }
    }
    if (p.completed == 0) continue;
    req_rate.push_back(static_cast<double>(p.requests) / p.run_s);
    spec_rate.push_back(static_cast<double>(p.completed) / p.run_s);
  }
  std::vector<double> spec_quiet_us;
  for (const std::vector<double>& times : spec_us) {
    if (!times.empty()) spec_quiet_us.push_back(quiet_time(times));
  }

  report.note("learned_des: variant " + std::to_string(variant) + ", " +
              std::to_string(specs.size()) + " specs per pass, " +
              std::to_string(req_rate.size()) + " passes, " +
              std::to_string(kSpecBudgetS) + " s budget per spec; " +
              std::to_string(step_samples) + " step (spec) samples");
  worker.reset();  // reaped, so its peak RSS is counted
  EndToEnd e;
  e.requests_per_s = quiet_rate(req_rate);
  e.steps_per_s = quiet_rate(spec_rate);
  e.step_p50_us = quantile(spec_quiet_us, 0.5);
  e.step_p99_us = quantile(spec_quiet_us, 0.99);
  e.session_open_p50_us = median(open_us);
  e.setup_s = median(setup);
  e.peak_rss_mb = std::max(self_peak_rss_mb(), children_peak_rss_mb());
  e.counters = counters;
  emit_end_to_end(report, "learned_des", e);
}

}  // namespace perfbench
