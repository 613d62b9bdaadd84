#pragma once

/// @file bench_core.hpp
/// @brief The end-to-end benchmark's own machinery, kept apart from the
/// workloads so it can be tested: seeded input generation, the percentile
/// summary, open-loop latency, the in-memory span recorder and the host
/// stamp. Nothing here measures the program; main.cpp does.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "obs/json.hpp"

namespace perfbench {

namespace api = pdn3d::api;
namespace json = pdn3d::obs::json;

/// splitmix64: a small, fully specified generator, so a seed names the same
/// inputs on every compiler and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

// ---------------------------------------------------------------- percentiles

/// Median plus the highest percentile of {99.9, 99, 95, 90, 75, 50} that has
/// at least ten samples beyond it, with the sample count. When no listed
/// percentile qualifies (fewer than 20 samples) the tail is the maximum and
/// tail_pct reads 100.
struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail_pct = 0.0;
  double tail = 0.0;
};

/// Nearest-rank percentile of @p sorted (ascending, non-empty).
[[nodiscard]] double percentile(const std::vector<double>& sorted, double pct);
[[nodiscard]] Summary summarize(std::vector<double> values);
/// Plain median (mean of the middle pair for an even count); 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

// ------------------------------------------------------------- design inputs

/// One design point: the knobs a request names, in the facade's key space.
struct Design {
  double m2 = 0.0;       ///< percent of die area
  double m3 = 0.0;       ///< percent of die area
  long long tc = 0;      ///< TSV count; 0 keeps the benchmark's value
  std::string tl = "e";  ///< TSV location: c | e
  std::string bd = "f2b";

  /// The facade's typed options for these knobs.
  [[nodiscard]] api::DesignOptions options() const;
  /// The NDJSON `design` object for these knobs.
  [[nodiscard]] json::Value to_json() const;
  /// Stable text naming the design, e.g. "m2=14 m3=30 tc=96 tl=e bd=f2b".
  [[nodiscard]] std::string label() const;
};

/// The fixed pool the policy workload draws from (seed-independent, so one
/// recorded reference covers every seed): @p count designs per benchmark on
/// a grid inside the Table 8 ranges. Wide I/O keeps its JEDEC TSV count.
/// TSVs stay at the edge: with center TSVs a single active die already
/// exceeds the 24 mV policy limit, which leaves the IR-aware policies
/// nothing to schedule.
[[nodiscard]] std::vector<Design> design_pool(pdn3d::core::BenchmarkKind kind,
                                              std::size_t count);

/// A design no pool or working set contains: fractional M2/M3 usages keyed
/// by @p serial, so every call with a distinct serial names a new design.
[[nodiscard]] Design cold_design(pdn3d::core::BenchmarkKind kind, std::uint64_t serial);

// ----------------------------------------------------------- serve traffic

inline constexpr std::size_t kServeDesignsPerBenchmark = 12;
inline constexpr double kServeEmShare = 0.2;     ///< em-check share of requests
inline constexpr std::int64_t kServeColdEvery = 100;  ///< every 100th request is cold

/// The serve workload's resident working set: designs per benchmark, memory
/// states and I/O activities, all drawn from the seed.
struct WorkingSet {
  std::vector<pdn3d::core::BenchmarkKind> benchmarks;
  std::vector<std::vector<Design>> designs;  ///< [benchmark][design]
  std::vector<std::string> states;
  std::vector<double> activities;
};
[[nodiscard]] WorkingSet make_working_set(std::uint64_t seed);

/// One request of an open-loop stream: when it is due (seconds after the
/// phase starts) and the NDJSON line the generator submits.
struct ServeItem {
  double due_s = 0.0;
  std::int64_t id = 0;
  std::string line;
  bool cold = false;
};

/// A constant-rate open-loop stream of @p count requests at @p rate_rps.
/// The same (working set, seed, rate, count, first_id) gives a byte-identical
/// stream. @p cold_serial is advanced for each cold design the stream names.
[[nodiscard]] std::vector<ServeItem> make_stream(const WorkingSet& ws, std::uint64_t seed,
                                                 double rate_rps, std::size_t count,
                                                 std::int64_t first_id,
                                                 std::uint64_t* cold_serial);

/// Open-loop latency: completion minus the time the request was *due*, so a
/// late generator or a stalled submit still counts against the system.
[[nodiscard]] inline double open_loop_latency_ms(double due_s, double done_s) {
  return (done_s - due_s) * 1e3;
}

// -------------------------------------------------------------------- spans

using Clock = std::chrono::steady_clock;

/// One recorded span. Times are seconds since the recorder's epoch.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::string name;          ///< "<layer>.<what>", e.g. "irdrop.solve"
  double start_s = 0.0;
  double end_s = 0.0;
  std::uint32_t thread = 0;  ///< recorder-local thread index
  std::int64_t iteration = -1;
};

/// In-memory span store. Parents are carried explicitly (an id handed to
/// whoever opens the child), because the program's own trace context does
/// not follow work into exec::ThreadPool workers. Disabled recorders hand
/// out id 0 and record nothing.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] double now_s() const;

  std::uint64_t open(std::string_view name, std::uint64_t parent, std::int64_t iteration);
  void close(std::uint64_t id);
  /// Record a span whose interval was measured elsewhere.
  std::uint64_t add(std::string_view name, std::uint64_t parent, std::int64_t iteration,
                    double start_s, double end_s);

  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] json::Value to_json() const;

  /// RAII span on the calling thread.
  class Scope {
   public:
    Scope(SpanRecorder& rec, std::string_view name, std::uint64_t parent,
          std::int64_t iteration)
        : rec_(rec), id_(rec.open(name, parent, iteration)) {}
    ~Scope() { rec_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::uint64_t id() const { return id_; }

   private:
    SpanRecorder& rec_;
    std::uint64_t id_;
  };

 private:
  std::uint32_t thread_index();

  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mutex_;  ///< guards everything below
  std::vector<Span> spans_;
  std::map<std::thread::id, std::uint32_t> threads_;
};

/// Self time of every span: its duration minus the union of its children's
/// intervals (children on any thread, clipped to the parent). Keyed by id.
[[nodiscard]] std::map<std::uint64_t, double> self_times(const std::vector<Span>& spans);

/// Sum of self time per span name.
[[nodiscard]] std::map<std::string, double> self_by_name(const std::vector<Span>& spans);

// ---------------------------------------------------------------- reference

/// Recorded outputs the coopt and policy checks compare with
/// (reference.json): per section, per key, the FNV-1a of the rendered output
/// and the headline value.
struct Reference {
  json::Value doc;
  [[nodiscard]] const json::Value* entry(std::string_view section, std::string_view key) const;
};
/// Parse the JSON file at @p path; throws when it cannot be read or parsed.
[[nodiscard]] json::Value load_json(const std::string& path);
[[nodiscard]] Reference load_reference(const std::string& path);
[[nodiscard]] std::string output_hash(const std::string& text);
/// The reference entry recording @p r.
[[nodiscard]] json::Value reference_entry(const api::EvaluateResult& r);
/// @p r succeeded and reproduces the entry at (@p section, @p key) exactly.
[[nodiscard]] bool matches(const Reference& ref, std::string_view section, std::string_view key,
                           const api::EvaluateResult& r);

// -------------------------------------------------------------------- stamp

/// Host and environment a result was measured under. Results compare only
/// when every field but the seed matches.
[[nodiscard]] json::Value host_stamp(std::uint64_t seed, int threads, int workers);

}  // namespace perfbench
