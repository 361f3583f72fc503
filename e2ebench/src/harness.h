// Measurement plumbing for the end-to-end benchmark: the span tracer, the
// correctness tally, named metrics, order statistics and host calibration.
#ifndef AJD_E2EBENCH_HARNESS_H_
#define AJD_E2EBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace e2ebench {

/// Seconds on the steady clock (arbitrary origin).
double Now();

/// One timed call into a library module, recorded by the benchmark around
/// the call site (the library itself is not instrumented). `name` is
/// "<layer>.<function>"; the layer is the module under src/.
struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the tracer was created
  double end = 0.0;
  int parent = -1;     ///< index of the enclosing span, -1 at top level
  uint32_t run = 0;    ///< 0 = set-up, k >= 1 = measured round k
};

/// In-memory span recorder. Disabled, Begin/End cost nothing but a branch;
/// the benchmark enables it only on traced rounds.
class Tracer {
 public:
  Tracer();
  void SetRun(uint32_t run, bool enabled);
  int Begin(std::string name);
  void End(int id);
  /// Renames a finished or open span (e.g. an Observe that re-mined).
  void Rename(int id, std::string name);
  const std::vector<Span>& spans() const { return spans_; }
  /// Writes one JSON object per span, after a header line naming the run.
  ajd::Status WriteJsonLines(const std::string& path,
                        const std::string& header_json) const;

 private:
  double origin_;
  bool enabled_ = false;
  uint32_t run_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op while the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Durations (seconds) of the spans named `name` in measured rounds
/// (run >= 1), or in every run when `include_setup`.
std::vector<double> SpanDurations(const std::vector<Span>& spans,
                                  const std::string& name,
                                  bool include_setup = false);

/// Per-layer self time (span time minus child-span time), summed over the
/// spans of measured rounds.
std::map<std::string, double> LayerSelfSeconds(const std::vector<Span>& spans);

/// Attempted operations and checks, and how many failed. A failure is
/// reported on stderr with what failed.
class Tally {
 public:
  bool Check(bool ok, const std::string& what);
  bool CheckStatus(const ajd::Status& status, const std::string& what);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Host context recorded with every run, so a contended window can be told
/// from a regression.
struct HostInfo {
  double hw_threads = 0;     ///< std::thread::hardware_concurrency()
  double affinity_cpus = 0;  ///< CPUs in this process's affinity mask
  double cpu_quota = 0;      ///< cgroup cpu.max quota / period; 0 = none
  double spin_threads = 0;   ///< threads the parallel spin used
  /// Wall time of `spin_threads` concurrent copies of a fixed spin over the
  /// wall time of one copy: 1 when every thread got its own core, up to
  /// spin_threads when they all shared one.
  double spin_ratio = 0;
};
HostInfo CalibrateHost();

/// Wall time of a fixed reference computation that stands in for the
/// library's hot loop (a counting-sort refinement of 1M rows by a 65536-
/// value column, eight passes; about 0.08 s). It is the benchmark's own
/// code and never changes with the library, so the ratio of a round's time
/// to the reference time measured beside it cancels the host's speed of
/// the moment.
double ReferenceSeconds();

/// The reference time the end-to-end seconds are scaled to.
constexpr double kReferenceS = 0.08;

/// A run's timings in the order they were taken, interleaved with
/// reference samples, so each timing can be scaled by the host speed of
/// its own moment: on a shared host the same round can take twice as long
/// in one minute as in the next, and the reference slows alike.
class Timeline {
 public:
  enum Kind { kReference, kSetup, kTask, kTracedTask };

  /// Takes `n` ReferenceSeconds() samples.
  void SampleReference(int n = 2);
  void Add(Kind kind, double seconds) { events_.push_back({kind, seconds}); }
  std::vector<double> Values(Kind kind) const;
  /// Values of `kind` at the reference speed: seconds * kReferenceS / r,
  /// where r averages the fastest sample of the reference group just
  /// before the timing and of the one just after it (fastest, because an
  /// interrupted sample says nothing about the host's speed).
  std::vector<double> AtReferenceSpeed(Kind kind) const;

 private:
  /// Fastest sample of the reference group nearest to `from` in direction
  /// `step` (+1 or -1); 0 when there is none.
  double NearestReference(size_t from, int step) const;

  std::vector<std::pair<Kind, double>> events_;
};

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// Total bytes of the regular files under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

/// A JSON number: full precision, integers without an exponent.
std::string JsonNumber(double v);

}  // namespace e2ebench

#endif  // AJD_E2EBENCH_HARNESS_H_
