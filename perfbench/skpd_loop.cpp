// skpd_loop: one skpd child process and kClients client connections in
// a closed loop — each client keeps one STEP in flight, as a user waits
// for a page before asking for the next — running fixed-length oracle
// netsim_des sessions back to back (HELLO -> STEPs -> STATS/BYE). The
// work is the wire protocol and the daemon's poll loop; the stepper
// behind each STEP takes a few microseconds.
#include <sched.h>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "layers.hpp"
#include "sim/skpd_client.hpp"
#include "sim/skpd_loopback.hpp"

namespace perfbench {

using namespace skp;

namespace {

// Two clients and the daemon keep three pinned threads busy and leave
// the machine's fourth CPU to the kernel and the benchmark's own thread,
// so the round-trip tail measures the daemon rather than the scheduler.
// Two are enough to queue STEPs behind the daemon's single poll thread.
constexpr std::size_t kClients = 2;
// Client c cycles over specs c, c + kClients, ...: no two clients share a
// spec, so every session open grounds its catalog afresh and the open
// cost does not depend on how the clients interleave.
constexpr std::size_t kSessionSpecs = 144;
// Cache sizes 4, 8, ..., 36 cycle over the session specs, each with its
// own seed, so the simulated statistics average over several chains.
constexpr std::size_t kCacheSizes = 9;
// A HELLO holds the poll loop for a few hundred microseconds while the
// daemon grounds the catalog, and the other client's STEP waits behind
// it. Sessions are long enough that such STEPs stay well under 1% of
// all, so step_p99_us does not sit on the knee they put in the tail.
constexpr std::size_t kSessionSteps = 1000;
constexpr int kSetupRepeats = 15;
constexpr std::size_t kWarmupSteps = 250;
// Untraced metrics are computed per window of the loop and summarised
// over the windows by their quietest quartile, so a stall of the
// machine moves the windows it spans, not the run.
constexpr double kWindowS = 0.5;

// What one client thread observed.
struct ClientLog {
  std::vector<double> round_trip_us;
  std::vector<std::uint64_t> done_ns;  // completion time of each STEP
  std::vector<double> open_us;
  std::uint64_t opens = 0;
  std::uint64_t steps = 0;
  // (spec index, digest of SkpdClient::finish(), steps) per session.
  struct Session {
    std::size_t spec;
    std::uint64_t digest;
    std::uint64_t steps;
  };
  std::vector<Session> sessions;
  // Snapshots of the first session of each spec (traced runs).
  std::vector<std::vector<NetsimStepSnapshot>> snaps;
  std::string error;
  std::uint64_t loop_ns = 0;
  Tracer tracer{1u << 15};
};

// Pins the calling thread (pid 0) or process `pid` to one CPU; the
// daemon gets CPU 0 and client c CPU c + 1 when the machine has a CPU
// for each, so the loop does not migrate between runs.
void pin(pid_t pid, std::size_t cpu) {
  if (std::thread::hardware_concurrency() < kClients + 1) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(cpu), &set);
  (void)sched_setaffinity(pid, sizeof set, &set);
}

void client_main(std::size_t client, int port,
                 const std::vector<SimSpec>& specs, std::uint64_t deadline,
                 bool traced, ClientLog& log) {
  pin(0, client + 1);
  Tracer* tr = traced ? &log.tracer : nullptr;
  log.snaps.resize(specs.size());
  const std::uint64_t t_loop = now_ns();
  try {
    for (std::size_t s = 0; now_ns() < deadline; ++s) {
      const std::size_t idx =
          client + kClients * (s % (kSessionSpecs / kClients));
      SkpdClientConfig cfg;
      cfg.port = port;
      ++log.opens;
      std::uint64_t t0 = now_ns();
      std::optional<SkpdClient> c;
      {
        Tracer::Scope span(tr, Layer::kSessionOpen, 0);
        c.emplace(cfg, specs[idx]);
      }
      log.open_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      const bool keep = traced && log.snaps[idx].empty();
      std::uint64_t steps = 0;
      while (!c->done()) {
        NetsimStepSnapshot snap;
        t0 = now_ns();
        {
          Tracer::Scope span(tr, Layer::kRoundTrip,
                             static_cast<std::uint32_t>(steps));
          snap = c->step();
        }
        const std::uint64_t t1 = now_ns();
        log.round_trip_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
        log.done_ns.push_back(t1);
        ++steps;
        if (snap.seq != steps) {
          throw std::runtime_error("STEP_RESULT out of sequence");
        }
        if (keep) log.snaps[idx].push_back(snap);
      }
      SimResult result;
      {
        Tracer::Scope span(tr, Layer::kSessionFinish, 0);
        result = c->finish();
      }
      log.steps += steps;
      log.sessions.push_back({idx, digest(result), steps});
    }
  } catch (const std::exception& e) {
    log.error = e.what();
  }
  log.loop_ns = now_ns() - t_loop;
}

// Runs the closed loop for `seconds`; returns the client logs and the
// loop's wall time.
std::vector<std::unique_ptr<ClientLog>> run_clients(
    int port, const std::vector<SimSpec>& specs, double seconds, bool traced,
    double& wall_s, std::uint64_t* start_ns = nullptr) {
  std::vector<std::unique_ptr<ClientLog>> logs;
  for (std::size_t c = 0; c < kClients; ++c) {
    logs.push_back(std::make_unique<ClientLog>());
  }
  const std::uint64_t t0 = now_ns();
  if (start_ns) *start_ns = t0;
  const std::uint64_t deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back(client_main, c, port, std::cref(specs), deadline,
                           traced, std::ref(*logs[c]));
    }
  }
  wall_s = seconds_since(t0);
  return logs;
}

// Checks every session against the in-process reference and books the
// operations; returns the total steps.
std::uint64_t check_sessions(const std::vector<std::unique_ptr<ClientLog>>& logs,
                             const std::vector<std::uint64_t>& reference,
                             Report& report) {
  std::uint64_t steps = 0;
  for (const auto& log : logs) {
    report.attempt(log->opens);
    std::uint64_t booked = 0;
    for (const ClientLog::Session& s : log->sessions) {
      report.attempt(s.steps);
      booked += s.steps;
      if (s.digest != reference[s.spec]) {
        report.wrong(s.steps, "skpd_loop session of spec " +
                                  std::to_string(s.spec) +
                                  " differs from in-process run_sim");
      }
    }
    steps += booked;
    if (!log->error.empty()) {
      // The session in flight when the client failed.
      report.attempt(kSessionSteps);
      report.fail(kSessionSteps, "skpd_loop client: " + log->error);
    }
  }
  return steps;
}

// Per-window STEP rate and round-trip quantiles over the complete
// kWindowS windows after `start_ns`.
struct Windows {
  std::vector<double> rate, p50_us, p99_us;
};

Windows window_stats(const std::vector<std::unique_ptr<ClientLog>>& logs,
                     std::uint64_t start_ns, double seconds) {
  const auto window_ns = static_cast<std::uint64_t>(kWindowS * 1e9);
  const auto n = static_cast<std::size_t>(seconds / kWindowS);
  std::vector<std::vector<double>> rtt(n);
  for (const auto& log : logs) {
    for (std::size_t i = 0; i < log->done_ns.size(); ++i) {
      const std::size_t w = (log->done_ns[i] - start_ns) / window_ns;
      if (w < n) rtt[w].push_back(log->round_trip_us[i]);
    }
  }
  Windows out;
  for (const std::vector<double>& w : rtt) {
    if (w.empty()) continue;
    out.rate.push_back(static_cast<double>(w.size()) / kWindowS);
    out.p50_us.push_back(quantile(w, 0.5));
    out.p99_us.push_back(quantile(w, 0.99));
  }
  return out;
}

double daemon_peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

void stop_daemon(SkpdDaemonProcess& daemon, Report& report) {
  const int status = daemon.terminate();
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    report.wrong(1, "skpd did not drain with exit 0");
  }
}

}  // namespace

std::vector<SimSpec> skpd_session_specs(std::uint64_t variant) {
  std::vector<SimSpec> specs;
  for (std::size_t j = 0; j < kSessionSpecs; ++j) {
    SimSpec spec;
    spec.driver = SimDriverKind::NetsimDes;
    spec.requests = kSessionSteps;
    spec.cache_size = 4 + 4 * (j % kCacheSizes);
    spec.seed = 1000 * (variant + 1) + j;
    specs.push_back(spec);
  }
  return specs;
}

void run_skpd_loop(const Options& opt, const DigestTable& digests,
                   Report& report) {
  const std::uint64_t variant = variant_of(opt.seed);
  const std::vector<std::string>* expected =
      digests.find("skpd_loop", variant);

  // Set-up: build the session specs, spawn the daemon (until it
  // announces its port) and run one warm-up session, cut to
  // kWarmupSteps so that set-up is the daemon's start rather than a
  // stretch of the loop. Repeated; the median is reported and the last
  // daemon serves the run.
  std::vector<SimSpec> specs;
  std::unique_ptr<SkpdDaemonProcess> daemon;
  std::vector<double> setup;
  for (int k = 0; k < kSetupRepeats; ++k) {
    if (daemon) stop_daemon(*daemon, report);
    const std::uint64_t t0 = now_ns();
    specs = skpd_session_specs(variant);
    daemon = std::make_unique<SkpdDaemonProcess>(opt.skpd_bin);
    pin(daemon->pid(), 0);
    SkpdClientConfig cfg;
    cfg.port = daemon->port();
    SimSpec warm_spec = specs.front();
    warm_spec.requests = kWarmupSteps;
    SkpdClient warm(cfg, warm_spec);
    while (!warm.done()) warm.step();
    (void)warm.finish();
    setup.push_back(seconds_since(t0));
  }
  if (expected == nullptr || expected->size() != specs.size()) {
    report.wrong(1, "no committed skpd_loop digests for this variant");
    return;
  }

  // Reference: in-process run_sim of each session spec, which must also
  // match the committed digests.
  std::vector<std::uint64_t> reference;
  Counters counters;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const SimResult r = run_sim(specs[i]);
    reference.push_back(digest(r));
    counters.add(r, /*has_link=*/true);
    report.attempt(specs[i].requests);
    if (hex(reference.back()) != (*expected)[i]) {
      report.wrong(specs[i].requests, "skpd_loop spec " + std::to_string(i) +
                                          " differs from the committed digest");
    }
  }

  if (!opt.trace) {
    double wall_s = 0.0;
    std::uint64_t start_ns = 0;
    const auto logs = run_clients(daemon->port(), specs, opt.seconds, false,
                                  wall_s, &start_ns);
    const double rss = daemon_peak_rss_mb(daemon->pid());
    stop_daemon(*daemon, report);
    const std::uint64_t steps = check_sessions(logs, reference, report);
    std::vector<double> open;
    std::size_t samples = 0;
    for (const auto& log : logs) {
      samples += log->round_trip_us.size();
      open.insert(open.end(), log->open_us.begin(), log->open_us.end());
    }
    const Windows win = window_stats(logs, start_ns, opt.seconds);
    report.note("skpd_loop: variant " + std::to_string(variant) + ", " +
                std::to_string(kClients) + " closed-loop clients, " +
                std::to_string(kSessionSteps) + "-step sessions; " +
                std::to_string(samples) + " step samples in " +
                std::to_string(win.rate.size()) + " windows, " +
                std::to_string(open.size()) + " session opens; " +
                std::to_string(steps) + " steps in " +
                std::to_string(wall_s) + " s");
    EndToEnd e;
    e.requests_per_s = quiet_rate(win.rate);
    e.steps_per_s = e.requests_per_s;
    e.step_p50_us = quiet_time(win.p50_us);
    e.step_p99_us = quiet_time(win.p99_us);
    e.session_open_p50_us = median(open);
    e.setup_s = median(setup);
    e.peak_rss_mb = rss;
    e.counters = counters;
    emit_end_to_end(report, "skpd_loop", e);
    return;
  }

  // Traced: half the time untraced, half traced, for the overhead.
  LayerSummary s;
  s.counters = counters;
  double untraced_wall = 0.0, traced_wall = 0.0;
  const auto plain = run_clients(daemon->port(), specs, opt.seconds / 2,
                                 false, untraced_wall);
  const std::uint64_t plain_steps = check_sessions(plain, reference, report);
  const auto logs = run_clients(daemon->port(), specs, opt.seconds / 2, true,
                                traced_wall);
  stop_daemon(*daemon, report);
  const std::uint64_t steps = check_sessions(logs, reference, report);
  s.overhead_frac = (static_cast<double>(plain_steps) / untraced_wall) /
                        (static_cast<double>(steps) / traced_wall) -
                    1.0;

  Tracer loop;
  std::uint64_t client_ns = 0;
  for (std::size_t c = 0; c < logs.size(); ++c) {
    loop.merge(logs[c]->tracer);
    client_ns += logs[c]->loop_ns;
    if (c == 0) write_spans(opt, "skpd_loop-client0", logs[c]->tracer);
  }
  s.other_frac = note_accounting(report, "skpd_loop", loop, client_ns,
                                 /*print=*/true);
  s.sweep_busy_frac =
      static_cast<double>(loop.total_ns(Layer::kRoundTrip)) /
      static_cast<double>(client_ns);
  s.round_trip_ns = loop.self_ns_per_span(Layer::kRoundTrip);
  s.probes.merge(loop);

  // In-process replays of the same sessions: the stepper behind each
  // STEP, and the codecs over the frames the clients saw.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SimResult stepped;
    const auto snaps = replay_stepper(specs[i], s.probes, &stepped);
    if (digest(stepped) != reference[i]) {
      report.wrong(snaps.size(), "skpd_loop: stepped spec " +
                                     std::to_string(i) +
                                     " differs from in-process run_sim");
    }
    for (const auto& log : logs) {
      if (!log->snaps[i].empty() && log->snaps[i] != snaps) {
        report.wrong(snaps.size(), "skpd_loop: daemon snapshots of spec " +
                                       std::to_string(i) +
                                       " differ from the in-process stepper");
      }
    }
    if (!replay_codecs(snaps, s.probes, s.codec_bytes) ||
        !replay_spec_codec(specs[i], 25, s.probes)) {
      report.wrong(1, "skpd_loop codec replay did not round-trip");
    }
    s.codec_steps += snaps.size();
  }
  const double step_ns = s.probes.self_ns_per_span(Layer::kSimStep);
  const double codec_ns = s.probes.self_ns_per_span(Layer::kProtoCodec);
  char line[256];
  std::snprintf(line, sizeof line,
                "accounting[skpd_loop]:   round trip = sim.step %.0f ns + "
                "proto.codec %.0f ns + skpd.residual %.0f ns",
                step_ns, codec_ns, s.round_trip_ns - step_ns - codec_ns);
  report.note(line);

  // Layers off this workload's path, replayed on its inputs.
  SimSpec replica = specs.front();
  replica.driver = SimDriverKind::PrefetchCache;
  replica.requests = 2'000;
  Tracer replica_tr;
  const SimResult r =
      replay_prefetch_cache(replica, replica_tr, s.classes, s.replica_requests);
  if (replica_digest(r) != replica_digest(run_sim(replica))) {
    report.wrong(replica.requests, "skpd_loop replica differs from run_sim");
  }
  s.probes.merge(replica_tr);
  replay_predictors(replica.workload, replica.requests, replica.seed,
                    s.probes);
  note_counters(report, "skpd_loop", s.counters);
  emit_per_layer(report, s);
}

}  // namespace perfbench
