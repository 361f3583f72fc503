#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <utility>

namespace e2ebench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Tracing.
// ---------------------------------------------------------------------------

Tracer::Tracer() : origin_(Now()) {}

void Tracer::SetRun(uint32_t run, bool enabled) {
  run_ = run;
  enabled_ = enabled;
}

int Tracer::Begin(std::string name) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.run = run_;
  s.start = Now() - origin_;
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end = Now() - origin_;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::Rename(int id, std::string name) {
  if (id >= 0) spans_[static_cast<size_t>(id)].name = std::move(name);
}

ajd::Status Tracer::WriteJsonLines(const std::string& path,
                                   const std::string& header_json) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return ajd::Status::IoError("cannot write " + path);
  out << header_json << '\n';
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"run\":" << s.run << ",\"parent\":"
        << s.parent << ",\"name\":\"" << s.name << "\",\"start_s\":"
        << JsonNumber(s.start) << ",\"end_s\":" << JsonNumber(s.end)
        << "}\n";
  }
  out.flush();
  if (!out) return ajd::Status::IoError("short write to " + path);
  return ajd::Status::OK();
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name)
    : tracer_(tracer), id_(tracer->Begin(std::move(name))) {}

ScopedSpan::~ScopedSpan() { tracer_->End(id_); }

std::vector<double> SpanDurations(const std::vector<Span>& spans,
                                  const std::string& name,
                                  bool include_setup) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name && (include_setup || s.run >= 1)) {
      out.push_back(s.end - s.start);
    }
  }
  return out;
}

std::map<std::string, double> LayerSelfSeconds(
    const std::vector<Span>& spans) {
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] += spans[i].end - spans[i].start;
    if (spans[i].parent >= 0) {
      self[static_cast<size_t>(spans[i].parent)] -=
          spans[i].end - spans[i].start;
    }
  }
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string& name = spans[i].name;
    if (spans[i].run >= 1) by_layer[name.substr(0, name.find('.'))] += self[i];
  }
  return by_layer;
}

// ---------------------------------------------------------------------------
// Correctness tally and statistics.
// ---------------------------------------------------------------------------

bool Tally::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
  return ok;
}

bool Tally::CheckStatus(const ajd::Status& status, const std::string& what) {
  return Check(status.ok(), what + ": " + status.ToString());
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

// ---------------------------------------------------------------------------
// Host.
// ---------------------------------------------------------------------------

namespace {

// A dependent xorshift chain: pure ALU work, no memory traffic, so the
// parallel/serial ratio measures cores, not bandwidth.
uint64_t Spin(uint64_t iters) {
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

volatile uint64_t spin_sink;  // keeps the spin results observable

double TimeSpin(uint32_t threads, uint64_t iters) {
  std::vector<uint64_t> results(threads, 0);
  const double start = Now();
  std::vector<std::thread> pool;
  for (uint32_t t = 0; t < threads; ++t) {
    pool.emplace_back([&results, t, iters] { results[t] = Spin(iters + t); });
  }
  for (auto& th : pool) th.join();
  const double elapsed = Now() - start;
  for (uint64_t v : results) spin_sink = spin_sink ^ v;
  return elapsed;
}

// cgroup v2 cpu.max ("<quota> <period>" or "max <period>"), falling back to
// the v1 CFS files. 0 when there is no quota or no cgroup information.
double CgroupCpuQuota() {
  std::ifstream v2("/sys/fs/cgroup/cpu.max");
  std::string quota;
  double period = 0;
  if (v2 >> quota >> period) {
    return quota == "max" || period <= 0 ? 0.0 : std::stod(quota) / period;
  }
  std::ifstream q("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
  std::ifstream p("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
  double qv = 0;
  if (q >> qv && p >> period && qv > 0 && period > 0) return qv / period;
  return 0.0;
}

}  // namespace

HostInfo CalibrateHost() {
  HostInfo h;
  h.hw_threads = std::thread::hardware_concurrency();
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    h.affinity_cpus = CPU_COUNT(&set);
  }
  h.cpu_quota = CgroupCpuQuota();
  const double usable = h.affinity_cpus > 0 ? h.affinity_cpus : h.hw_threads;
  const uint32_t threads =
      static_cast<uint32_t>(std::clamp(usable, 1.0, 4.0));
  h.spin_threads = threads;
  // Best of three each: the spin is short, so one descheduling would
  // otherwise dominate it.
  constexpr uint64_t kIters = 20'000'000;
  double serial = 1e30, parallel = 1e30;
  for (int i = 0; i < 3; ++i) {
    serial = std::min(serial, TimeSpin(1, kIters));
    parallel = std::min(parallel, TimeSpin(threads, kIters));
  }
  h.spin_ratio = parallel / serial;
  return h;
}

double ReferenceSeconds() {
  constexpr uint32_t kRows = 1u << 20;
  constexpr uint32_t kValues = 1u << 16;
  constexpr int kPasses = 8;
  static const std::vector<uint32_t> column = [] {
    std::vector<uint32_t> c(kRows);
    uint64_t x = 0x2545F4914F6CDD1Dull;
    for (auto& v : c) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = static_cast<uint32_t>(x % kValues);
    }
    return c;
  }();
  std::vector<uint32_t> rows(kRows), next(kRows), count(kValues + 1);
  const double start = Now();
  for (uint32_t i = 0; i < kRows; ++i) rows[i] = i;
  double h = 0.0;
  for (int pass = 0; pass < kPasses; ++pass) {
    const uint32_t salt = static_cast<uint32_t>(pass) * 40503u;
    std::fill(count.begin(), count.end(), 0);
    for (uint32_t r : rows) ++count[((column[r] ^ salt) & (kValues - 1)) + 1];
    for (uint32_t v = 0; v < kValues; ++v) {
      if (count[v + 1] > 1) {
        const double c = count[v + 1];
        h += c * std::log(c);
      }
      count[v + 1] += count[v];
    }
    for (uint32_t r : rows) next[count[(column[r] ^ salt) & (kValues - 1)]++] = r;
    rows.swap(next);
  }
  const double elapsed = Now() - start;
  spin_sink = spin_sink ^ static_cast<uint64_t>(h) ^ rows[kRows / 2];
  return elapsed;
}

void Timeline::SampleReference(int n) {
  for (int i = 0; i < n; ++i) Add(kReference, ReferenceSeconds());
}

std::vector<double> Timeline::Values(Kind kind) const {
  std::vector<double> out;
  for (const auto& [k, v] : events_) {
    if (k == kind) out.push_back(v);
  }
  return out;
}

double Timeline::NearestReference(size_t from, int step) const {
  double fastest = 0.0;
  bool in_group = false;
  for (size_t i = from; i < events_.size(); i += step) {
    if (events_[i].first == kReference) {
      fastest = in_group ? std::min(fastest, events_[i].second)
                         : events_[i].second;
      in_group = true;
    } else if (in_group) {
      break;
    }
    if (i == 0 && step < 0) break;
  }
  return fastest;
}

std::vector<double> Timeline::AtReferenceSpeed(Kind kind) const {
  std::vector<double> out;
  for (size_t i = 0; i < events_.size(); ++i) {
    if (events_[i].first != kind) continue;
    const double before = i > 0 ? NearestReference(i - 1, -1) : 0.0;
    const double after = NearestReference(i + 1, +1);
    const double r = before > 0 && after > 0 ? (before + after) / 2
                                             : std::max(before, after);
    out.push_back(r > 0 ? events_[i].second * kReferenceS / r
                        : events_[i].second);
  }
  return out;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

std::string JsonNumber(double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

}  // namespace e2ebench
