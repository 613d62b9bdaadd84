#include "bench_core.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/fnv.hpp"

namespace perfbench {

using pdn3d::core::BenchmarkKind;

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------- percentiles

namespace {

/// Nearest rank of @p pct among @p n samples. The tolerance keeps binary
/// rounding (0.999 * 10000 = 9990.000000000002) from moving a rank up.
std::size_t nearest_rank(double pct, std::size_t n) {
  const double exact = pct / 100.0 * static_cast<double>(n);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::ceil(exact - 1e-9)), 1, n);
}

}  // namespace

double percentile(const std::vector<double>& sorted, double pct) {
  return sorted[nearest_rank(pct, sorted.size()) - 1];
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = median(values);
  s.tail_pct = 100.0;
  s.tail = values.back();
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (s.count - nearest_rank(pct, s.count) >= 10) {
      s.tail_pct = pct;
      s.tail = percentile(values, pct);
      break;
    }
  }
  return s;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ------------------------------------------------------------- design inputs

namespace {

std::string fmt_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

bool is_wide_io(BenchmarkKind kind) { return kind == BenchmarkKind::kWideIo; }

}  // namespace

api::DesignOptions Design::options() const {
  api::DesignOptions o;
  o.m2_pct = m2;
  o.m3_pct = m3;
  if (tc > 0) o.tsv_count = tc;
  (void)api::set_option(&o, "tl", tl);
  (void)api::set_option(&o, "bd", bd);
  return o;
}

json::Value Design::to_json() const {
  auto d = json::Value::object();
  d.set("m2", m2);
  d.set("m3", m3);
  if (tc > 0) d.set("tc", static_cast<double>(tc));
  d.set("tl", tl);
  d.set("bd", bd);
  return d;
}

std::string Design::label() const {
  std::string s = "m2=" + fmt_number(m2) + " m3=" + fmt_number(m3);
  if (tc > 0) s += " tc=" + std::to_string(tc);
  return s + " tl=" + tl + " bd=" + bd;
}

std::vector<Design> design_pool(BenchmarkKind kind, std::size_t count) {
  static constexpr double kM2[] = {12, 14, 16, 18, 20};
  static constexpr double kM3[] = {20, 25, 30, 35, 40};
  static constexpr long long kTc[] = {64, 96, 128, 192};
  static constexpr const char* kBd[] = {"f2b", "f2f"};
  std::vector<Design> grid;
  for (const double m2 : kM2) {
    for (const double m3 : kM3) {
      for (const long long tc : kTc) {
        for (const char* bd : kBd) {
          grid.push_back(Design{m2, m3, is_wide_io(kind) ? 0 : tc, "e", bd});
        }
        if (is_wide_io(kind)) break;  // TSV count pinned by JEDEC
      }
    }
  }
  // A fixed shuffle: the pool is part of the recorded reference, not of the
  // seed.
  Rng rng(0x5EEDB00CULL + static_cast<std::uint64_t>(kind));
  for (std::size_t i = grid.size() - 1; i > 0; --i) std::swap(grid[i], grid[rng.below(i + 1)]);
  grid.resize(std::min(count, grid.size()));
  return grid;
}

Design cold_design(BenchmarkKind kind, std::uint64_t serial) {
  // Resident and pool usages are whole percents; these never are. The
  // serial maps one-to-one onto (M2, M3) for the first 1.58 million serials.
  Design d;
  d.m2 = 12.0 + static_cast<double>(serial % 8) + 0.01 * static_cast<double>(1 + serial / 8 % 99);
  d.m3 = 20.0 + 0.01 * static_cast<double>(serial / 792 % 2000) + 0.005;
  d.tc = is_wide_io(kind) ? 0 : 96;
  return d;
}

// ----------------------------------------------------------- serve traffic

WorkingSet make_working_set(std::uint64_t seed) {
  WorkingSet ws;
  ws.benchmarks = {BenchmarkKind::kWideIo, BenchmarkKind::kStackedDdr3OffChip};
  Rng rng(seed ^ 0x57A7E5ULL);
  for (const auto kind : ws.benchmarks) {
    auto pool = design_pool(kind, 1000);
    for (std::size_t i = pool.size() - 1; i > 0; --i) std::swap(pool[i], pool[rng.below(i + 1)]);
    pool.resize(kServeDesignsPerBenchmark);
    ws.designs.push_back(std::move(pool));
  }
  // Memory states: per-die active-bank counts in 0..2, at least one active.
  std::vector<std::string> states;
  for (int code = 1; code < 81; ++code) {
    std::string s;
    for (int d = 0, c = code; d < 4; ++d, c /= 3) {
      if (d > 0) s += '-';
      s += std::to_string(c % 3);
    }
    states.push_back(s);
  }
  for (std::size_t i = states.size() - 1; i > 0; --i) {
    std::swap(states[i], states[rng.below(i + 1)]);
  }
  ws.states.assign(states.begin(), states.begin() + 8);
  std::vector<double> acts = {0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0};
  for (std::size_t i = acts.size() - 1; i > 0; --i) std::swap(acts[i], acts[rng.below(i + 1)]);
  ws.activities.assign(acts.begin(), acts.begin() + 4);
  return ws;
}

std::vector<ServeItem> make_stream(const WorkingSet& ws, std::uint64_t seed, double rate_rps,
                                   std::size_t count, std::int64_t first_id,
                                   std::uint64_t* cold_serial) {
  Rng rng(seed ^ (static_cast<std::uint64_t>(first_id) * 0x9E3779B97F4A7C15ULL) ^
          static_cast<std::uint64_t>(rate_rps * 1000.0));
  std::vector<ServeItem> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ServeItem item;
    item.due_s = static_cast<double>(i) / rate_rps;
    item.id = first_id + static_cast<std::int64_t>(i);
    const std::size_t b = rng.below(ws.benchmarks.size());
    // Cold requests are evenly spaced rather than drawn: two cold builds
    // landing together would decide the tail latency by chance.
    item.cold = item.id % kServeColdEvery == 0;
    const bool em = static_cast<double>(rng.below(1'000'000)) < kServeEmShare * 1e6;
    const Design design = item.cold ? cold_design(ws.benchmarks[b], (*cold_serial)++)
                                    : ws.designs[b][rng.below(ws.designs[b].size())];
    auto doc = json::Value::object();
    doc.set("id", item.id);
    doc.set("op", api::to_string(em && !item.cold ? api::Operation::kEmCheck
                                                   : api::Operation::kEvaluate));
    doc.set("benchmark", api::benchmark_token(ws.benchmarks[b]));
    doc.set("design", design.to_json());
    doc.set("state", ws.states[rng.below(ws.states.size())]);
    doc.set("activity", ws.activities[rng.below(ws.activities.size())]);
    item.line = doc.dump();
    out.push_back(std::move(item));
  }
  return out;
}

// -------------------------------------------------------------------- spans

SpanRecorder::SpanRecorder(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

double SpanRecorder::now_s() const {
  return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

std::uint32_t SpanRecorder::thread_index() {
  const auto [it, inserted] = threads_.emplace(std::this_thread::get_id(),
                                               static_cast<std::uint32_t>(threads_.size()));
  (void)inserted;
  return it->second;
}

std::uint64_t SpanRecorder::open(std::string_view name, std::uint64_t parent,
                                 std::int64_t iteration) {
  if (!enabled_) return 0;
  const double t = now_s();
  const std::lock_guard<std::mutex> lock(mutex_);
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.name = std::string(name);
  s.start_s = t;
  s.end_s = -1.0;
  s.thread = thread_index();
  s.iteration = iteration;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanRecorder::close(std::uint64_t id) {
  if (!enabled_ || id == 0) return;
  const double t = now_s();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end_s = t;
}

std::uint64_t SpanRecorder::add(std::string_view name, std::uint64_t parent,
                                std::int64_t iteration, double start_s, double end_s) {
  if (!enabled_) return 0;
  const std::lock_guard<std::mutex> lock(mutex_);
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.name = std::string(name);
  s.start_s = start_s;
  s.end_s = end_s;
  s.thread = thread_index();
  s.iteration = iteration;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::vector<Span> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

json::Value SpanRecorder::to_json() const {
  auto arr = json::Value::array();
  for (const auto& s : spans()) {
    auto o = json::Value::object();
    o.set("id", s.id);
    o.set("parent", s.parent);
    o.set("name", s.name);
    o.set("start_s", s.start_s);
    o.set("end_s", s.end_s);
    o.set("thread", static_cast<std::uint64_t>(s.thread));
    o.set("iteration", s.iteration);
    arr.push_back(std::move(o));
  }
  return arr;
}

std::map<std::uint64_t, double> self_times(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  std::map<std::uint64_t, const Span*> by_id;
  for (const auto& s : spans) by_id[s.id] = &s;
  for (const auto& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_s, s.end_s);
  }
  std::map<std::uint64_t, double> out;
  for (const auto& s : spans) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto iv = it->second;
      for (auto& [a, b] : iv) {
        a = std::max(a, s.start_s);
        b = std::min(b, s.end_s);
      }
      std::sort(iv.begin(), iv.end());
      double cur_a = 0.0, cur_b = -1.0;
      for (const auto& [a, b] : iv) {
        if (b <= a) continue;
        if (a > cur_b) {
          if (cur_b > cur_a) covered += cur_b - cur_a;
          cur_a = a;
          cur_b = b;
        } else {
          cur_b = std::max(cur_b, b);
        }
      }
      if (cur_b > cur_a) covered += cur_b - cur_a;
    }
    out[s.id] = std::max(0.0, (s.end_s - s.start_s) - covered);
  }
  return out;
}

std::map<std::string, double> self_by_name(const std::vector<Span>& spans) {
  const auto self = self_times(spans);
  std::map<std::string, double> out;
  for (const auto& s : spans) out[s.name] += self.at(s.id);
  return out;
}

// ---------------------------------------------------------------- reference

const json::Value* Reference::entry(std::string_view section, std::string_view key) const {
  const json::Value* s = doc.find(section);
  return s == nullptr ? nullptr : s->find(key);
}

json::Value load_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return json::parse(ss.str());
}

Reference load_reference(const std::string& path) { return Reference{load_json(path)}; }

std::string output_hash(const std::string& text) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(pdn3d::util::fnv1a(text)));
  return buf;
}

json::Value reference_entry(const api::EvaluateResult& r) {
  auto e = json::Value::object();
  e.set("output_fnv", output_hash(r.output));
  e.set("headline_mv", r.headline_mv);
  return e;
}

bool matches(const Reference& ref, std::string_view section, std::string_view key,
             const api::EvaluateResult& r) {
  const json::Value* e = ref.entry(section, key);
  if (e == nullptr || !r.ok()) return false;
  const json::Value* hash = e->find("output_fnv");
  const json::Value* mv = e->find("headline_mv");
  return hash != nullptr && mv != nullptr && hash->is_string() && mv->is_number() &&
         hash->as_string() == output_hash(r.output) &&
         std::fabs(mv->as_number() - r.headline_mv) <= 1e-9;
}

// -------------------------------------------------------------------- stamp

json::Value host_stamp(std::uint64_t seed, int threads, int workers) {
  auto env = [](const char* name) {
    const char* v = std::getenv(name);
    return std::string(v != nullptr ? v : "unset");
  };
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  auto s = json::Value::object();
  s.set("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  s.set("cpu", cpu);
  s.set("build_type", PERFBENCH_BUILD_TYPE);
#ifdef NDEBUG
  s.set("asserts", "off");
#else
  s.set("asserts", "on");
#endif
  s.set("compiler", __VERSION__);
  s.set("threads", threads);
  s.set("workers", workers);
  s.set("PDN3D_THREADS", env("PDN3D_THREADS"));
  s.set("PDN3D_HIER_TIER", env("PDN3D_HIER_TIER"));
  s.set("seed", seed);
  return s;
}

}  // namespace perfbench
