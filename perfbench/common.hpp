// Shared machinery of the repo benchmark: clocks, sample statistics,
// result digests, the committed digest table, span tracing and the
// report that ends every run with one JSON line.
//
// Everything here lives outside the program under test: the benchmark
// times calls into the public skp API and records spans in its own
// memory only.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/runtime.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

// ---- Command line ---------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string skpd_bin;     // path to the skpd daemon binary
  std::string digests;      // committed digest table
  std::string out_dir;      // span files (traced runs)
  std::string write_digests;  // regenerate the digest table and exit
};

// Inputs come from a pool of kSeedVariants committed variants: the
// --seed value picks one, and every spec of a variant has a committed
// digest, so each run checks its outputs against known-good values.
inline constexpr std::uint64_t kSeedVariants = 16;
inline std::uint64_t variant_of(std::uint64_t seed) {
  return seed % kSeedVariants;
}

// ---- Sample statistics ----------------------------------------------------

// Linear-interpolation quantile (q in [0, 1]); 0 on an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
// Figures taken per pass or per window are summarised by their quietest
// quartile: the lower quartile of times, the upper quartile of rates.
// The host's other tenants only ever add time, often for a minute or
// more. A change that slows every pass moves these as much as the
// median; a stall over up to three quarters of a run does not.
inline double quiet_time(std::vector<double> values) {
  return quantile(std::move(values), 0.25);
}
inline double quiet_rate(std::vector<double> values) {
  return quantile(std::move(values), 0.75);
}

// ---- Output digests ---------------------------------------------------------

// FNV-1a over the decision outputs of a SimResult: access times (exact
// bits), hits, fetches, wasted prefetches, network times, fault and
// overload outcomes, deadline hits, per-client rows included. Work
// counters (solver nodes, memo-tier stats) are left out, so a change
// that only makes the program faster keeps the committed digests.
std::uint64_t digest(const skp::SimResult& result);
// digest() plus the work counters: solver nodes and the plan/selection
// memo-tier stats. For two paths through the same program in one run
// (the replica guard), which must agree on the work done too.
std::uint64_t replica_digest(const skp::SimResult& result);
std::string hex(std::uint64_t value);

// Committed per-spec digests: one line per (workload, variant) holding
// the hex digest of each spec in workload order.
class DigestTable {
 public:
  // Returns false (with `error` set) when the file cannot be read.
  bool load(const std::string& path, std::string& error);
  // nullptr when the table has no row for (workload, variant).
  const std::vector<std::string>* find(const std::string& workload,
                                       std::uint64_t variant) const;

 private:
  std::map<std::pair<std::string, std::uint64_t>, std::vector<std::string>>
      rows_;
};

// ---- Spans ----------------------------------------------------------------

enum class Layer : std::uint8_t {
  kSpec,             // one spec (sweep point)
  kWorkloadStep,     // MarkovSource::view_at + successors + step
  kPlan,             // PrefetchEngine::plan_with_cache_cached
  kAccessTime,       // realized_access_time_cached
  kCacheMutate,      // SlotCache insert/replace/contains + FreqTracker
  kVictim,           // choose_victim
  kPredictObserve,   // Predictor::observe
  kPredictPredict,   // Predictor::predict_into
  kSimStep,          // NetsimStepper::step
  kSessionCtor,      // NetsimStepper construction
  kRunSim,           // run_sim of one spec
  kOverBudget,       // a spec stopped at its wall budget
  kProtoCodec,       // step frame encode/parse/decode replay
  kSpecCodec,        // encode_sim_spec + decode_sim_spec
  kRoundTrip,        // SkpdClient::step
  kSessionOpen,      // SkpdClient construction
  kSessionFinish,    // SkpdClient::finish
  kCount
};

const char* layer_name(Layer layer);

// Records spans (name, start, end, parent, request id). Aggregates the
// total and self time of every layer online; keeps the first `keep`
// spans in memory for write_tsv(). Self time is a span's duration minus
// the part its child spans cover. Not thread-safe: one per thread.
class Tracer {
 public:
  explicit Tracer(std::size_t keep = std::size_t{1} << 17);

  void begin(Layer layer, std::uint32_t request);
  // Closes the innermost open span; returns its duration in ns.
  std::uint64_t end();
  // Records an already-timed leaf span under the innermost open span.
  void record(Layer layer, std::uint64_t start_ns, std::uint64_t end_ns,
              std::uint32_t request);

  struct Scope {
    Scope(Tracer* t, Layer layer, std::uint32_t request) : tracer(t) {
      if (tracer) tracer->begin(layer, request);
    }
    ~Scope() {
      if (tracer) tracer->end();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Tracer* tracer;
  };

  std::uint64_t total_ns(Layer layer) const { return agg_[idx(layer)].total; }
  std::uint64_t self_ns(Layer layer) const {
    return agg_[idx(layer)].total - agg_[idx(layer)].children;
  }
  std::uint64_t count(Layer layer) const { return agg_[idx(layer)].count; }
  // Mean self time per span of `layer` (0 when none was recorded).
  double self_ns_per_span(Layer layer) const;
  // Adds `other`'s aggregates (kept spans are not merged).
  void merge(const Tracer& other);

  // Appends the kept spans as TSV rows (name, start_ns, end_ns,
  // parent index or -1, request id).
  void write_tsv(std::ostream& out) const;

 private:
  static std::size_t idx(Layer l) { return static_cast<std::size_t>(l); }

  struct Span {
    std::uint64_t start = 0, end = 0;
    std::int64_t parent = -1;
    std::uint32_t request = 0;
    Layer layer = Layer::kSpec;
  };
  struct Open {
    Layer layer;
    std::uint64_t start;
    std::uint64_t children = 0;
    std::int64_t kept_index;  // -1 when the span is not kept
  };
  struct Agg {
    std::uint64_t total = 0, children = 0, count = 0;
  };

  std::size_t keep_;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  Agg agg_[static_cast<std::size_t>(Layer::kCount)];
};

// ---- Report -----------------------------------------------------------------

// Collects the run's metrics and failures; print() writes the
// human-readable lines and, last, the one JSON result object.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  // Informational line (deterministic counters, accounting rows).
  void note(const std::string& line) { notes_.push_back(line); }
  void attempt(std::uint64_t n) { attempted_ += n; }
  // Operations that did not complete (e.g. over their wall budget).
  void fail(std::uint64_t n, const std::string& why);
  // Operations whose output disagrees with the reference: they count as
  // failed and make the run incorrect.
  void wrong(std::uint64_t n, const std::string& why);

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

// Peak resident set of this process (MiB).
double self_peak_rss_mb();
// Peak resident set over waited-for child processes (MiB).
double children_peak_rss_mb();

// ---- Workload entry points ----------------------------------------------------

void run_fig7_sweep(const Options& opt, const DigestTable& digests,
                    Report& report);
void run_learned_des(const Options& opt, const DigestTable& digests,
                     Report& report);
void run_skpd_loop(const Options& opt, const DigestTable& digests,
                   Report& report);

// The spec lists of each workload for one seed variant, in digest order.
std::vector<skp::SimSpec> fig7_specs(std::uint64_t variant);
std::vector<skp::SimSpec> learned_specs(std::uint64_t variant);
std::vector<skp::SimSpec> skpd_session_specs(std::uint64_t variant);

}  // namespace perfbench
