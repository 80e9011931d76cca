#include "layers.hpp"

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>

#include "cache/cache.hpp"
#include "cache/freq_tracker.hpp"
#include "core/access_model.hpp"
#include "core/arbitration.hpp"
#include "core/prefetch_engine.hpp"
#include "predict/dependency_graph.hpp"
#include "predict/lz78_predictor.hpp"
#include "predict/markov_predictor.hpp"
#include "predict/ppm_predictor.hpp"
#include "sim/grounded.hpp"
#include "sim/prefetch_cache.hpp"
#include "sim/skpd_client.hpp"
#include "sim/skpd_loopback.hpp"
#include "sim/skpd_protocol.hpp"
#include "workload/markov_source.hpp"

namespace perfbench {

using namespace skp;

// ---- Counters -----------------------------------------------------------------

void Counters::add(const SimResult& r, bool has_link) {
  const SimMetrics& m = r.metrics;
  requests += m.requests;
  hits += m.hits;
  prefetched += m.prefetch_fetches;
  wasted += m.wasted_prefetches;
  solver_nodes += m.solver_nodes;
  plan_lookups += r.plan_cache.plans.lookups();
  plan_hits += r.plan_cache.plans.hits;
  select_lookups += r.plan_cache.selections.lookups();
  select_hits += r.plan_cache.selections.hits;
  fault_retries += r.fault.retries;
  overload_transitions += r.overload.transitions;
  access_time_sum += m.access_time.sum();
  network_time += m.network_time;
  if (has_link) {
    ++link_results;
    link_utilization_sum += r.link_utilization;
  }
}

void Counters::add(const Counters& c) {
  requests += c.requests;
  hits += c.hits;
  prefetched += c.prefetched;
  wasted += c.wasted;
  solver_nodes += c.solver_nodes;
  plan_lookups += c.plan_lookups;
  plan_hits += c.plan_hits;
  select_lookups += c.select_lookups;
  select_hits += c.select_hits;
  fault_retries += c.fault_retries;
  overload_transitions += c.overload_transitions;
  link_results += c.link_results;
  link_utilization_sum += c.link_utilization_sum;
  access_time_sum += c.access_time_sum;
  network_time += c.network_time;
}

namespace {
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}
}  // namespace

double Counters::mean_T() const {
  return ratio(access_time_sum, static_cast<double>(requests));
}
double Counters::hit_rate() const { return ratio(hits, requests); }
double Counters::net_per_req() const {
  return ratio(network_time, static_cast<double>(requests));
}
double Counters::plan_tier_hit_rate() const {
  return ratio(plan_hits, plan_lookups);
}
double Counters::select_tier_hit_rate() const {
  return ratio(select_hits, select_lookups);
}
double Counters::solver_nodes_per_plan() const {
  return ratio(solver_nodes, requests);
}
double Counters::prefetch_precision() const {
  return ratio(prefetched - wasted, prefetched);
}
double Counters::fault_retry_ratio() const {
  return ratio(fault_retries, prefetched);
}
double Counters::link_utilization() const {
  return ratio(link_utilization_sum, static_cast<double>(link_results));
}

void note_counters(Report& report, const char* label, const Counters& c) {
  // Wire bytes of one STEP plus its STEP_RESULT (fixed-size frames).
  std::string frames;
  append_skpd_frame(frames, SkpdFrameType::kStep, encode_step(SkpdStep{}));
  append_skpd_frame(frames, SkpdFrameType::kStepResult,
                    encode_step_result(NetsimStepSnapshot{}));
  char line[512];
  std::snprintf(line, sizeof line,
                "counters[%s]: requests=%llu solver_nodes_per_plan=%.6f "
                "plan_tier_hit_rate=%.6f select_tier_hit_rate=%.6f "
                "prefetch_precision=%.6f fault_retry_ratio=%.6f "
                "link_utilization=%.6f overload_transitions=%llu "
                "bytes_per_step=%zu",
                label, static_cast<unsigned long long>(c.requests),
                c.solver_nodes_per_plan(), c.plan_tier_hit_rate(),
                c.select_tier_hit_rate(), c.prefetch_precision(),
                c.fault_retry_ratio(), c.link_utilization(),
                static_cast<unsigned long long>(c.overload_transitions),
                frames.size());
  report.note(line);
}

double PlanClasses::mean_ns(int cls) const {
  return ratio(ns[cls], calls[cls]);
}

// ---- prefetch_cache replica ---------------------------------------------------

namespace {

// The predictor parameters of the prefetch_cache driver.
std::unique_ptr<Predictor> prefetch_cache_predictor(PredictorKind kind,
                                                    std::size_t n) {
  switch (kind) {
    case PredictorKind::Oracle: return nullptr;
    case PredictorKind::Markov1:
      return std::make_unique<MarkovPredictor>(n, 0.05);
    case PredictorKind::Ppm: return std::make_unique<PpmPredictor>(n, 2);
    case PredictorKind::DependencyWindow:
      return std::make_unique<DependencyGraph>(n, 2);
    case PredictorKind::Lz78: return std::make_unique<Lz78Predictor>(n);
  }
  return nullptr;
}

}  // namespace

SimResult replay_prefetch_cache(const SimSpec& spec, Tracer& tr,
                                PlanClasses& classes,
                                std::uint64_t& requests) {
  const std::uint32_t spec_req = static_cast<std::uint32_t>(requests);
  Tracer::Scope spec_span(&tr, Layer::kSpec, spec_req);
  Rng build(spec.seed);
  MarkovSource source(to_markov_config(spec.workload), build);
  Rng walk = build.split(kPrefetchCacheWalkSalt);
  source.teleport(0);
  const std::size_t n = source.n_states();

  EngineConfig ecfg;
  ecfg.policy = spec.policy;
  ecfg.delta_rule = spec.delta_rule;
  ecfg.arbitration.sub = spec.sub;
  ecfg.min_profit_threshold = spec.min_profit_threshold;
  ecfg.evaluate_plan_g = false;
  const PrefetchEngine engine(ecfg);

  SlotCache cache(n, spec.cache_size);
  FreqTracker freq(n);
  auto predictor = prefetch_cache_predictor(spec.predictor, n);
  std::vector<char> unused_prefetch(n, 0);
  PlanScratch scratch;
  PrefetchPlan plan;

  const bool volatile_plans =
      predictor != nullptr || spec.sub != SubArbitration::None;
  std::optional<PlanCache> plans;
  std::optional<PlanCache> selections;
  std::optional<CanonicalOrderTable> canon;
  if (spec.use_plan_cache) {
    if (!volatile_plans) {
      plans.emplace(engine.config_digest(), spec.plan_cache_capacity,
                    /*doorkeeper=*/true);
    }
    if (!predictor) {
      selections.emplace(engine.config_digest(), spec.plan_cache_capacity);
      canon.emplace(n);
    }
  }

  SimResult result;
  SimMetrics& m = result.metrics;
  std::size_t state = source.current_state();
  if (predictor) {
    Tracer::Scope s(&tr, Layer::kPredictObserve, spec_req);
    predictor->observe(static_cast<ItemId>(state));
  }

  for (std::size_t req = 0; req < spec.requests; ++req) {
    const auto id = static_cast<std::uint32_t>(requests++);
    const bool counted = req >= spec.warmup;

    // The source decides the next request right after the view is
    // taken; a learned predictor forecasts in between.
    InstanceView inst;
    std::span<const ItemId> hint;
    ItemId next = 0;
    tr.begin(Layer::kWorkloadStep, id);
    inst = source.view_at(state);
    hint = source.successors(state);
    if (predictor) {
      tr.end();
      {
        Tracer::Scope s(&tr, Layer::kPredictPredict, id);
        predictor->predict_into(scratch.P);
      }
      for (double& p : scratch.P) {
        if (p < spec.predictor_min_prob) p = 0.0;
      }
      inst.P = scratch.P;
      hint = {};
      tr.begin(Layer::kWorkloadStep, id);
    }
    next = static_cast<ItemId>(source.step(walk));
    tr.end();
    std::optional<ItemId> oracle;
    if (spec.policy == PrefetchPolicy::Perfect) oracle = next;

    PlanMemo memo;
    memo.plans = plans ? &*plans : nullptr;
    memo.selections = selections ? &*selections : nullptr;
    memo.canon = canon ? &*canon : nullptr;
    memo.state_key = state;
    const std::uint64_t plan_hits0 = plans ? plans->stats().hits : 0;
    const std::uint64_t sel_hits0 = selections ? selections->stats().hits : 0;
    tr.begin(Layer::kPlan, id);
    engine.plan_with_cache_cached(inst, cache, &freq, memo, scratch, plan,
                                  oracle, hint);
    const std::uint64_t plan_ns = tr.end();
    int cls = PlanClasses::kSolve;
    if (plans && plans->stats().hits != plan_hits0) {
      cls = PlanClasses::kPlanHit;
    } else if (selections && selections->stats().hits != sel_hits0) {
      cls = PlanClasses::kSelectHit;
    }
    classes.ns[cls] += plan_ns;
    ++classes.calls[cls];

    double T = 0.0;
    {
      Tracer::Scope s(&tr, Layer::kAccessTime, id);
      T = realized_access_time_cached(inst, plan.fetch, plan.evict,
                                      cache.presence(), next);
    }

    // One cache span per request covers prefetch execution, the
    // simulator's counters and the serve-side record/lookup.
    bool resident = false;
    {
      Tracer::Scope s(&tr, Layer::kCacheMutate, id);
      std::size_t victim_idx = 0;
      for (std::size_t k = 0; k < plan.fetch.size(); ++k) {
        const ItemId f = plan.fetch[k];
        if (cache.full()) {
          const ItemId d = plan.evict[victim_idx++];
          if (unused_prefetch[InstanceView::idx(d)]) {
            if (counted) ++m.wasted_prefetches;
            unused_prefetch[InstanceView::idx(d)] = 0;
          }
          cache.replace(d, f);
        } else {
          cache.insert(f);
        }
        unused_prefetch[InstanceView::idx(f)] = 1;
        if (counted) {
          ++m.prefetch_fetches;
          m.network_time += inst.r[InstanceView::idx(f)];
          m.prefetch_network_time += inst.r[InstanceView::idx(f)];
        }
      }
      if (counted) {
        m.solver_nodes += plan.solver_nodes;
        m.access_time.add(T);
        ++m.requests;
        if (T == 0.0) ++m.hits;
        if (T > source.viewing_time(state)) ++result.over_viewing_time;
      }
      freq.record(next);
      resident = cache.contains(next);
    }
    if (predictor) {
      Tracer::Scope s(&tr, Layer::kPredictObserve, id);
      predictor->observe(next);
    }
    unused_prefetch[InstanceView::idx(next)] = 0;

    if (!resident) {
      if (counted) {
        ++m.demand_fetches;
        m.network_time += source.retrieval_time(next);
        m.demand_network_time += source.retrieval_time(next);
      }
      if (cache.full()) {
        ItemId d = 0;
        {
          Tracer::Scope s(&tr, Layer::kVictim, id);
          InstanceView next_inst =
              source.view_at(static_cast<std::size_t>(next));
          if (predictor) {
            predictor->predict_into(scratch.P);
            next_inst.P = scratch.P;
          }
          d = choose_victim(next_inst, cache.contents(), &freq,
                            ecfg.arbitration);
        }
        if (unused_prefetch[InstanceView::idx(d)]) {
          if (counted) ++m.wasted_prefetches;
          unused_prefetch[InstanceView::idx(d)] = 0;
        }
        Tracer::Scope s(&tr, Layer::kCacheMutate, id);
        cache.replace(d, next);
      } else {
        Tracer::Scope s(&tr, Layer::kCacheMutate, id);
        cache.insert(next);
      }
    }
    state = static_cast<std::size_t>(next);
  }
  if (plans) result.plan_cache.plans = plans->stats();
  if (selections) result.plan_cache.selections = selections->stats();
  return result;
}

// ---- Predictor, stepper and codec replays ---------------------------------------

void replay_predictors(const SimWorkload& workload, std::size_t requests,
                       std::uint64_t seed, Tracer& tr) {
  Rng build(seed);
  Rng walk = build.split(2);
  const MaterializedWorkload script =
      materialize_workload(workload, requests, build, walk);
  std::vector<double> P;
  for (const PredictorKind kind :
       {PredictorKind::Ppm, PredictorKind::Lz78, PredictorKind::Markov1,
        PredictorKind::DependencyWindow}) {
    auto predictor = make_runtime_predictor(kind, script.n_items);
    std::uint32_t id = 0;
    for (const TraceRecord& cycle : script.cycles) {
      {
        Tracer::Scope s(&tr, Layer::kPredictPredict, id);
        predictor->predict_into(P);
      }
      Tracer::Scope s(&tr, Layer::kPredictObserve, id++);
      predictor->observe(cycle.item);
    }
  }
}

std::vector<NetsimStepSnapshot> replay_stepper(const SimSpec& spec,
                                               Tracer& tr,
                                               SimResult* result) {
  std::optional<NetsimStepper> stepper;
  {
    Tracer::Scope s(&tr, Layer::kSessionCtor, 0);
    stepper.emplace(spec);
  }
  std::vector<NetsimStepSnapshot> snaps;
  snaps.reserve(spec.requests);
  while (!stepper->done()) {
    Tracer::Scope s(&tr, Layer::kSimStep,
                    static_cast<std::uint32_t>(snaps.size()));
    snaps.push_back(stepper->step());
  }
  if (result) *result = stepper->result();
  return snaps;
}

bool replay_codecs(const std::vector<NetsimStepSnapshot>& snaps, Tracer& tr,
                   std::uint64_t& bytes) {
  bool ok = true;
  std::string step_frame, result_frame;
  for (const NetsimStepSnapshot& snap : snaps) {
    SkpdStep sent{snap.seq, snap.seq - 1};
    SkpdStep got;
    NetsimStepSnapshot back;
    {
      Tracer::Scope s(&tr, Layer::kProtoCodec,
                      static_cast<std::uint32_t>(snap.seq));
      step_frame.clear();
      append_skpd_frame(step_frame, SkpdFrameType::kStep, encode_step(sent));
      std::size_t off = 0;
      const std::optional<SkpdFrame> f = parse_skpd_frame(step_frame, off);
      got = decode_step(f.value().payload);
      result_frame.clear();
      append_skpd_frame(result_frame, SkpdFrameType::kStepResult,
                        encode_step_result(snap));
      off = 0;
      const std::optional<SkpdFrame> g = parse_skpd_frame(result_frame, off);
      back = decode_step_result(g.value().payload);
    }
    ok = ok && got.seq == sent.seq && got.ack == sent.ack && back == snap;
    bytes += step_frame.size() + result_frame.size();
  }
  return ok;
}

bool replay_spec_codec(const SimSpec& spec, int reps, Tracer& tr) {
  bool ok = true;
  for (int i = 0; i < reps; ++i) {
    SimSpec back;
    {
      Tracer::Scope s(&tr, Layer::kSpecCodec, static_cast<std::uint32_t>(i));
      back = decode_sim_spec(encode_sim_spec(spec));
    }
    ok = ok && back == spec;
  }
  return ok;
}

double probe_daemon_round_trip_ns(const std::string& skpd_bin,
                                  const SimSpec& spec, Tracer& tr,
                                  SimResult* result) {
  SkpdDaemonProcess daemon(skpd_bin);
  std::uint64_t total = 0, steps = 0;
  {
    SkpdClientConfig cfg;
    cfg.port = daemon.port();
    SkpdClient client(cfg, spec);
    while (!client.done()) {
      tr.begin(Layer::kRoundTrip, static_cast<std::uint32_t>(steps));
      client.step();
      total += tr.end();
      ++steps;
    }
    const SimResult r = client.finish();
    if (result) *result = r;
  }
  const int status = daemon.terminate();
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("skpd probe daemon did not drain cleanly");
  }
  return ratio(total, steps);
}

// ---- Per-layer metrics ------------------------------------------------------------

void emit_end_to_end(Report& report, const char* label, const EndToEnd& e) {
  note_counters(report, label, e.counters);
  const double failed = ratio(report.failed(), report.attempted());
  report.note("failed_frac: " + std::to_string(failed));
  report.metric("requests_per_s", e.requests_per_s, "1/s");
  report.metric("steps_per_s", e.steps_per_s, "1/s");
  report.metric("step_p50_us", e.step_p50_us, "us");
  report.metric("step_p99_us", e.step_p99_us, "us");
  report.metric("session_open_p50_us", e.session_open_p50_us, "us");
  report.metric("setup_s", e.setup_s, "s");
  report.metric("peak_rss_mb", e.peak_rss_mb, "MiB");
  report.metric("ok_frac", 1.0 - failed, "ratio");
  report.metric("sim_mean_T", e.counters.mean_T(), "tu");
  report.metric("sim_hit_rate", e.counters.hit_rate(), "ratio");
  report.metric("sim_net_per_req", e.counters.net_per_req(), "tu");
}

void emit_per_layer(Report& r, const LayerSummary& s) {
  const Tracer& t = s.probes;
  const Counters& c = s.counters;
  const double step_ns = t.self_ns_per_span(Layer::kSimStep);
  const double codec_ns = t.self_ns_per_span(Layer::kProtoCodec);
  r.metric("workload.step_ns",
           ratio(static_cast<double>(t.self_ns(Layer::kWorkloadStep)),
                 static_cast<double>(s.replica_requests)),
           "ns");
  r.metric("core.plan_ns", t.self_ns_per_span(Layer::kPlan), "ns");
  r.metric("core.plan_hit_ns", s.classes.mean_ns(PlanClasses::kPlanHit),
           "ns");
  r.metric("core.plan_select_hit_ns",
           s.classes.mean_ns(PlanClasses::kSelectHit), "ns");
  r.metric("core.plan_solve_ns", s.classes.mean_ns(PlanClasses::kSolve),
           "ns");
  r.metric("core.plan_tier_hit_rate", c.plan_tier_hit_rate(), "ratio");
  r.metric("core.select_tier_hit_rate", c.select_tier_hit_rate(), "ratio");
  r.metric("core.solver_nodes_per_plan", c.solver_nodes_per_plan(), "count");
  r.metric("core.access_time_ns", t.self_ns_per_span(Layer::kAccessTime),
           "ns");
  r.metric("core.victim_ns", t.self_ns_per_span(Layer::kVictim), "ns");
  r.metric("cache.mutate_ns",
           ratio(static_cast<double>(t.self_ns(Layer::kCacheMutate)),
                 static_cast<double>(s.replica_requests)),
           "ns");
  r.metric("cache.prefetch_precision", c.prefetch_precision(), "ratio");
  r.metric("predict.observe_ns", t.self_ns_per_span(Layer::kPredictObserve),
           "ns");
  r.metric("predict.predict_ns", t.self_ns_per_span(Layer::kPredictPredict),
           "ns");
  r.metric("sim.step_ns", step_ns, "ns");
  r.metric("sim.fault_retry_ratio", c.fault_retry_ratio(), "ratio");
  r.metric("sim.link_utilization", c.link_utilization(), "ratio");
  r.metric("core.overload_transitions",
           static_cast<double>(c.overload_transitions), "count");
  r.metric("sim.session_ctor_us",
           t.self_ns_per_span(Layer::kSessionCtor) / 1e3, "us");
  r.metric("proto.spec_codec_us", t.self_ns_per_span(Layer::kSpecCodec) / 1e3,
           "us");
  r.metric("proto.codec_ns", codec_ns, "ns");
  r.metric("proto.bytes_per_step",
           ratio(s.codec_bytes, s.codec_steps), "bytes");
  r.metric("skpd.residual_us", (s.round_trip_ns - step_ns - codec_ns) / 1e3,
           "us");
  r.metric("util.sweep_busy_frac", s.sweep_busy_frac, "ratio");
  r.metric("trace.overhead_frac", s.overhead_frac, "ratio");
  r.metric("trace.other_frac", s.other_frac, "ratio");
}

double note_accounting(Report& report, const char* label, const Tracer& loop,
                       std::uint64_t e2e_ns, bool print) {
  char line[256];
  std::snprintf(line, sizeof line, "accounting[%s]: traced end-to-end %.3f ms",
                label, static_cast<double>(e2e_ns) * 1e-6);
  if (print) report.note(line);
  std::uint64_t accounted = 0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(Layer::kCount); ++i) {
    const auto layer = static_cast<Layer>(i);
    if (layer == Layer::kSpec) continue;
    if (loop.count(layer) == 0) continue;
    const std::uint64_t self = loop.self_ns(layer);
    accounted += self;
    std::snprintf(line, sizeof line,
                  "accounting[%s]:   %-22s %10.3f ms %6.2f%%  (%llu spans)",
                  label, layer_name(layer), static_cast<double>(self) * 1e-6,
                  100.0 * ratio(static_cast<double>(self),
                                static_cast<double>(e2e_ns)),
                  static_cast<unsigned long long>(loop.count(layer)));
    if (print) report.note(line);
  }
  const double other =
      static_cast<double>(e2e_ns) - static_cast<double>(accounted);
  std::snprintf(line, sizeof line,
                "accounting[%s]:   %-22s %10.3f ms %6.2f%%", label, "other",
                other * 1e-6,
                100.0 * ratio(other, static_cast<double>(e2e_ns)));
  if (print) report.note(line);
  return ratio(other, static_cast<double>(e2e_ns));
}

void write_spans(const Options& opt, const std::string& name,
                 const Tracer& tracer) {
  if (opt.out_dir.empty()) return;
  const std::string path = opt.out_dir + "/" + name + ".tsv";
  std::ofstream out(path);
  out << "name\tstart_ns\tend_ns\tparent\trequest\n";
  tracer.write_tsv(out);
}

}  // namespace perfbench
