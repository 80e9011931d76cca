// Layer probes: replays of single layers through their public calls,
// with spans around each call, plus the per-layer metric set every
// traced run prints.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "sim/netsim_stepper.hpp"
#include "sim/runtime.hpp"

namespace perfbench {

// Deterministic counters summed over SimResults. Plain data, so a
// forked child can hand it back through a pipe.
struct Counters {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t prefetched = 0;
  std::uint64_t wasted = 0;
  std::uint64_t solver_nodes = 0;
  std::uint64_t plan_lookups = 0, plan_hits = 0;
  std::uint64_t select_lookups = 0, select_hits = 0;
  std::uint64_t fault_retries = 0;
  std::uint64_t overload_transitions = 0;
  std::uint64_t link_results = 0;  // results with a link (DES drivers)
  double link_utilization_sum = 0.0;
  double access_time_sum = 0.0;
  double network_time = 0.0;

  // `has_link`: the result comes from a DES driver with a link, so its
  // link utilization enters the mean.
  void add(const skp::SimResult& r, bool has_link = false);
  void add(const Counters& c);

  double mean_T() const;
  double hit_rate() const;
  double net_per_req() const;
  double plan_tier_hit_rate() const;
  double select_tier_hit_rate() const;
  double solver_nodes_per_plan() const;
  double prefetch_precision() const;
  double fault_retry_ratio() const;
  double link_utilization() const;
};

// Prints the deterministic counters as one informational line.
void note_counters(Report& report, const char* label, const Counters& c);

// The end-to-end figures of an untraced run, each already reduced to
// its reported value (medians over passes or windows).
struct EndToEnd {
  double requests_per_s = 0.0;
  double steps_per_s = 0.0;
  double step_p50_us = 0.0;
  double step_p99_us = 0.0;
  double session_open_p50_us = 0.0;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  Counters counters;  // simulated statistics of one pass
};

// Prints failed_frac and the counters, then emits every end-to-end
// metric in BENCHMARK.json order.
void emit_end_to_end(Report& report, const char* label, const EndToEnd& e);

// Mean self ns of planning calls by the memo tier that served them,
// classified by the PlanCache::stats delta around each call.
struct PlanClasses {
  enum { kPlanHit, kSelectHit, kSolve, kN };
  std::uint64_t ns[kN] = {};
  std::uint64_t calls[kN] = {};
  double mean_ns(int cls) const;
};

// Replays the solo prefetch_cache request loop (markov workload, no
// drift, no lookahead, no pipelining) from public calls, with a span
// around each layer call. Oracle or learned predictor, as the spec
// says. Returns the SimResult the loop computes; the replica guard
// requires it to equal run_sim(spec) exactly.
skp::SimResult replay_prefetch_cache(const skp::SimSpec& spec, Tracer& tracer,
                                     PlanClasses& classes,
                                     std::uint64_t& requests);

// Stage replay of make_runtime_predictor over a materialize_workload
// script: predict_into then observe, per cycle, for each learned kind.
void replay_predictors(const skp::SimWorkload& workload, std::size_t requests,
                       std::uint64_t seed, Tracer& tracer);

// NetsimStepper on `spec`: constructor span, then one span per step.
std::vector<skp::NetsimStepSnapshot> replay_stepper(const skp::SimSpec& spec,
                                                    Tracer& tracer,
                                                    skp::SimResult* result);

// Codec replay of the STEP / STEP_RESULT frames of `snaps`: encode_step,
// frame, parse_skpd_frame, decode_step, encode_step_result, frame,
// parse, decode_step_result — one span per step. Returns false when a
// frame does not round-trip. Adds the bytes both frames occupy.
bool replay_codecs(const std::vector<skp::NetsimStepSnapshot>& snaps,
                   Tracer& tracer, std::uint64_t& bytes);

// encode_sim_spec + decode_sim_spec, `reps` times, one span each.
// Returns false when the spec does not round-trip.
bool replay_spec_codec(const skp::SimSpec& spec, int reps, Tracer& tracer);

// One skpd session over `spec` against a private daemon: returns the
// mean client round trip in ns and records round-trip spans. Throws
// when the daemon cannot be reached.
double probe_daemon_round_trip_ns(const std::string& skpd_bin,
                                  const skp::SimSpec& spec, Tracer& tracer,
                                  skp::SimResult* result);

// Everything a traced run reports per layer.
struct LayerSummary {
  Tracer probes;              // merged probe and traced-loop spans
  PlanClasses classes;
  std::uint64_t replica_requests = 0;
  Counters counters;
  std::uint64_t codec_bytes = 0;
  std::uint64_t codec_steps = 0;
  double round_trip_ns = 0.0;  // mean client round trip
  double sweep_busy_frac = 0.0;
  double overhead_frac = 0.0;  // traced vs untraced time of the same work
  double other_frac = 0.0;     // accounting residual of the traced loop
};

// Emits every per-layer metric, in BENCHMARK.json order.
void emit_per_layer(Report& report, const LayerSummary& s);

// The accounting rows of a traced loop: each layer's self time, plus
// `other` (loop overhead and time outside any span), which add up to
// `e2e_ns`. Printed when `print` is set. Returns other / e2e.
double note_accounting(Report& report, const char* label,
                       const Tracer& loop, std::uint64_t e2e_ns, bool print);

// Writes the kept spans of `tracer` to <out_dir>/<name>.tsv.
void write_spans(const Options& opt, const std::string& name,
                 const Tracer& tracer);

}  // namespace perfbench
