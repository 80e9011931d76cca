#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// ---- Digests ------------------------------------------------------------------

namespace {

class Fnv {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void f64(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    u64(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// Decision outputs of one metrics row: what the user saw and what the
// network carried. Work counters (solver nodes) are left out.
void add_metrics(Fnv& h, const skp::SimMetrics& m) {
  h.u64(m.access_time.count());
  h.f64(m.access_time.mean());
  h.f64(m.access_time.m2());
  h.f64(m.access_time.min());
  h.f64(m.access_time.max());
  h.u64(m.requests);
  h.u64(m.hits);
  h.u64(m.demand_fetches);
  h.u64(m.prefetch_fetches);
  h.u64(m.wasted_prefetches);
  h.f64(m.network_time);
  h.f64(m.prefetch_network_time);
  h.f64(m.demand_network_time);
}

void add_tier(Fnv& h, const skp::PlanCacheStats& s) {
  h.u64(s.hits);
  h.u64(s.misses);
  h.u64(s.inserts);
  h.u64(s.evictions);
  h.u64(s.door_rejects);
}

void add_decisions(Fnv& h, const skp::SimResult& r) {
  add_metrics(h, r.metrics);
  h.u64(r.over_viewing_time);
  h.u64(r.churn_events);
  h.u64(r.budget_violations);
  h.f64(r.worst_budget_overrun);
  h.f64(r.link_utilization);
  h.u64(r.fault.failed_transfers);
  h.u64(r.fault.timeouts);
  h.u64(r.fault.stalled);
  h.u64(r.fault.retries);
  h.u64(r.fault.abandoned);
  h.u64(r.overload.transitions);
  h.u64(r.overload.forced_transitions);
  h.u64(static_cast<std::uint64_t>(r.overload.max_rung));
  h.u64(r.overload.degraded_requests);
  for (const std::uint64_t n : r.overload.requests_at_rung) h.u64(n);
  h.u64(r.deadline_hits);
  h.u64(r.avg_T_by_v.has_value() ? 1 : 0);
  h.u64(r.per_client.size());
  for (const skp::SimMetrics& m : r.per_client) add_metrics(h, m);
}

}  // namespace

std::uint64_t digest(const skp::SimResult& r) {
  Fnv h;
  add_decisions(h, r);
  return h.value();
}

std::uint64_t replica_digest(const skp::SimResult& r) {
  Fnv h;
  add_decisions(h, r);
  h.u64(r.metrics.solver_nodes);
  for (const skp::SimMetrics& m : r.per_client) h.u64(m.solver_nodes);
  add_tier(h, r.plan_cache.plans);
  add_tier(h, r.plan_cache.selections);
  h.u64(r.plans);
  return h.value();
}

std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

bool DigestTable::load(const std::string& path, std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot read digest table " + path;
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload;
    std::uint64_t variant = 0;
    if (!(fields >> workload >> variant)) {
      error = "malformed digest line: " + line.substr(0, 60);
      return false;
    }
    std::vector<std::string>& row = rows_[{workload, variant}];
    std::string d;
    while (fields >> d) row.push_back(d);
  }
  return true;
}

const std::vector<std::string>* DigestTable::find(const std::string& workload,
                                                  std::uint64_t variant) const {
  const auto it = rows_.find({workload, variant});
  return it == rows_.end() ? nullptr : &it->second;
}

// ---- Tracer -------------------------------------------------------------------

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSpec: return "spec";
    case Layer::kWorkloadStep: return "workload.step";
    case Layer::kPlan: return "core.plan";
    case Layer::kAccessTime: return "core.access_time";
    case Layer::kCacheMutate: return "cache.mutate";
    case Layer::kVictim: return "core.victim";
    case Layer::kPredictObserve: return "predict.observe";
    case Layer::kPredictPredict: return "predict.predict";
    case Layer::kSimStep: return "sim.step";
    case Layer::kSessionCtor: return "sim.session_ctor";
    case Layer::kRunSim: return "sim.run_sim";
    case Layer::kOverBudget: return "sim.over_budget";
    case Layer::kProtoCodec: return "proto.codec";
    case Layer::kSpecCodec: return "proto.spec_codec";
    case Layer::kRoundTrip: return "skpd.round_trip";
    case Layer::kSessionOpen: return "skpd.session_open";
    case Layer::kSessionFinish: return "skpd.session_finish";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer::Tracer(std::size_t keep) : keep_(keep) {
  spans_.reserve(std::min<std::size_t>(keep_, 4096));
  stack_.reserve(16);
}

void Tracer::begin(Layer layer, std::uint32_t request) {
  std::int64_t kept = -1;
  if (spans_.size() < keep_) {
    Span s;
    s.layer = layer;
    s.request = request;
    s.parent = stack_.empty() ? -1 : stack_.back().kept_index;
    kept = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(s);
  }
  stack_.push_back(Open{layer, now_ns(), 0, kept});
  if (kept >= 0) spans_[static_cast<std::size_t>(kept)].start = stack_.back().start;
}

std::uint64_t Tracer::end() {
  const std::uint64_t t = now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::uint64_t dur = t - open.start;
  Agg& a = agg_[idx(open.layer)];
  a.total += dur;
  a.children += open.children;
  ++a.count;
  if (!stack_.empty()) stack_.back().children += dur;
  if (open.kept_index >= 0) spans_[static_cast<std::size_t>(open.kept_index)].end = t;
  return dur;
}

void Tracer::record(Layer layer, std::uint64_t start_ns, std::uint64_t end_ns,
                    std::uint32_t request) {
  if (spans_.size() < keep_) {
    Span s;
    s.start = start_ns;
    s.end = end_ns;
    s.layer = layer;
    s.request = request;
    s.parent = stack_.empty() ? -1 : stack_.back().kept_index;
    spans_.push_back(s);
  }
  const std::uint64_t dur = end_ns - start_ns;
  Agg& a = agg_[idx(layer)];
  a.total += dur;
  ++a.count;
  if (!stack_.empty()) stack_.back().children += dur;
}

double Tracer::self_ns_per_span(Layer layer) const {
  const Agg& a = agg_[idx(layer)];
  return a.count ? static_cast<double>(a.total - a.children) /
                       static_cast<double>(a.count)
                 : 0.0;
}

void Tracer::merge(const Tracer& other) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(Layer::kCount); ++i) {
    agg_[i].total += other.agg_[i].total;
    agg_[i].children += other.agg_[i].children;
    agg_[i].count += other.agg_[i].count;
  }
}

void Tracer::write_tsv(std::ostream& out) const {
  for (const Span& s : spans_) {
    out << layer_name(s.layer) << '\t' << s.start << '\t' << s.end << '\t'
        << s.parent << '\t' << s.request << '\n';
  }
}

// ---- Report -------------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    errors_.push_back("metric " + name + " is not finite");
    correct_ = false;
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Report::fail(std::uint64_t n, const std::string& why) {
  failed_ += n;
  errors_.push_back("failed: " + why);
}

void Report::wrong(std::uint64_t n, const std::string& why) {
  failed_ += n;
  correct_ = false;
  errors_.push_back("WRONG OUTPUT: " + why);
}

void Report::print() const {
  for (const std::string& line : notes_) std::cout << line << '\n';
  // Expected failures repeat every pass; print each distinct one once.
  std::vector<std::string> shown;
  for (const std::string& e : errors_) {
    if (std::find(shown.begin(), shown.end(), e) != shown.end()) continue;
    shown.push_back(e);
    std::cout << e << '\n';
  }
  for (const Metric& m : metrics_) {
    std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", metrics_[i].value);
    if (i) json += ", ";
    json += "\"" + metrics_[i].name + "\": {\"value\": " + num +
            ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double children_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
