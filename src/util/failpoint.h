// Deterministic, seedable fault injection for robustness tests.
//
// A *failpoint* is a named site in the runtime where a test can arm a
// failure: an allocation that throws, an I/O step that errors, a task that
// dies mid-batch. Production code marks the site with one of the macros
// below; tests arm it through FailpointRegistry with a trigger policy
// (every-Nth evaluation, probability-with-seed, one-shot) and assert that
// the surrounding layer survives — batch completes, relation rolls back,
// catch-up degrades, budget stays settled.
//
// Unless the build defines AJD_ENABLE_FAILPOINTS (CMake option
// -DAJD_ENABLE_FAILPOINTS=ON), every macro compiles to nothing — the
// release binary carries no branch, no string, no registry symbol at the
// marked sites. tier-1 and the perf smoke drivers run with the macros off;
// the fault-injection soak (tests/fault_injection_test.cc) runs with them
// on and drives every catalogued point.
//
// Thread safety: Arm/Disarm/ShouldFail are fully synchronized — failpoints
// are evaluated from pool worker threads and from threads racing a
// catch-up while a test arms/disarms from the main thread.
#ifndef AJD_UTIL_FAILPOINT_H_
#define AJD_UTIL_FAILPOINT_H_

#include <cstdint>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

namespace ajd {

/// The exception thrown by AJD_INJECT_FAULT at an armed failpoint. Layers
/// under test must treat it like any other runtime failure (bad_alloc,
/// io error): contain it, roll back, convert to Status at the boundary.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& point)
      : std::runtime_error("injected fault at failpoint: " + point),
        point_(point) {}

  const std::string& point() const { return point_; }

 private:
  std::string point_;
};

/// Trigger policy for one armed failpoint. All policies are deterministic:
/// every-Nth and one-shot count evaluations since Arm; probability draws
/// from a per-point PRNG seeded at Arm, so a given (policy, seed) produces
/// the same firing pattern on every run.
struct FailpointConfig {
  enum class Kind { kEveryNth, kProbability, kOneShot };

  /// Fires on the n-th, 2n-th, ... evaluation after `start_after` skipped
  /// evaluations.
  static FailpointConfig EveryNth(uint64_t n, uint64_t start_after = 0);

  /// Fires each evaluation independently with probability `p`, drawn from
  /// a PRNG seeded with `seed` at Arm time.
  static FailpointConfig Probability(double p, uint64_t seed);

  /// Fires exactly once, on the first evaluation after `after` skipped
  /// evaluations; subsequent evaluations never fire.
  static FailpointConfig OneShot(uint64_t after = 0);

  Kind kind = Kind::kOneShot;
  uint64_t n = 1;            // kEveryNth period
  uint64_t start_after = 0;  // kEveryNth / kOneShot skip count
  double probability = 0.0;  // kProbability
  uint64_t seed = 0;         // kProbability
};

/// Process-wide registry of armed failpoints and per-point counters.
class FailpointRegistry {
 public:
  /// The process singleton.
  static FailpointRegistry& Instance();

  /// Arms `name` with `config`, resetting its evaluation/trigger counters
  /// and (for probability policies) reseeding its PRNG.
  void Arm(const std::string& name, FailpointConfig config);

  /// Disarms `name`; its counters survive so a test can still read them.
  void Disarm(const std::string& name);

  /// Disarms every point. Call between soak iterations.
  void DisarmAll();

  /// Evaluates `name` against its armed policy; false when unarmed. This
  /// is what the macros call — tests normally use Arm + the counters.
  bool ShouldFail(const char* name);

  /// Evaluations of `name` since it was last armed (0 if never armed).
  uint64_t Evaluations(const std::string& name) const;

  /// Times `name` actually fired since it was last armed.
  uint64_t Triggers(const std::string& name) const;

  /// Every failpoint name compiled into the library, for coverage
  /// assertions ("the soak fired each of these at least once").
  static const std::vector<std::string>& Catalog();

 private:
  FailpointRegistry();
  ~FailpointRegistry();

  struct Impl;
  Impl* impl_;
};

namespace failpoints {
// The catalog. Names are "layer/site"; each constant is referenced by
// exactly one AJD_FAILPOINT site in src/ and by the soak's coverage loop.
inline constexpr const char* kRelationAppendReserve = "relation/append_reserve";
inline constexpr const char* kRelationAppendStage = "relation/append_stage";
inline constexpr const char* kRelationIntern = "relation/intern";
inline constexpr const char* kCsvBatch = "io/csv_batch";
inline constexpr const char* kEngineComputePartition =
    "engine/compute_partition";
inline constexpr const char* kEngineBatchTask = "engine/batch_task";
inline constexpr const char* kEngineCatchupExtend = "engine/catchup_extend";
inline constexpr const char* kEngineCatchupPublish = "engine/catchup_publish";
inline constexpr const char* kStreamingIngestBatch = "streaming/ingest_batch";
// Persistence tier (persist/persistent_store.h). These two sites cover
// every durable write the store performs; unlike the throwing sites above
// they surface as Status (the store's API is exception-free). The journal
// append doubles as a CRASH SIMULATOR: when it fires, only
// persist_internal::SetTornWriteBytes() bytes of the buffer actually reach
// the file, and with persist_internal::SetCrashSimulation(true) the store
// skips its in-process tidy-up (truncate-back / tmp removal) so the file is
// left exactly as a kill -9 at that byte would leave it — the
// crash-recovery soak then reopens the directory and asserts recovery.
inline constexpr const char* kPersistManifestAppend =
    "persist/manifest_append";  ///< journal batch append (torn-write capable)
inline constexpr const char* kPersistCompactRename =
    "persist/compact_rename";  ///< between manifest.tmp fsync and the atomic
                               ///< rename; crash-sim leaves the tmp behind
}  // namespace failpoints

}  // namespace ajd

#ifdef AJD_ENABLE_FAILPOINTS

/// True when the named failpoint is armed and its policy fires now.
#define AJD_FAILPOINT(name) \
  (::ajd::FailpointRegistry::Instance().ShouldFail(name))

/// Throws std::bad_alloc when the named failpoint fires — simulates an
/// allocation failure at this site.
#define AJD_INJECT_BAD_ALLOC(name)              \
  do {                                          \
    if (AJD_FAILPOINT(name)) throw std::bad_alloc(); \
  } while (0)

/// Throws ajd::InjectedFault when the named failpoint fires.
#define AJD_INJECT_FAULT(name)                          \
  do {                                                  \
    if (AJD_FAILPOINT(name)) throw ::ajd::InjectedFault(name); \
  } while (0)

#else  // !AJD_ENABLE_FAILPOINTS

#define AJD_FAILPOINT(name) (false)
#define AJD_INJECT_BAD_ALLOC(name) \
  do {                             \
  } while (0)
#define AJD_INJECT_FAULT(name) \
  do {                         \
  } while (0)

#endif  // AJD_ENABLE_FAILPOINTS

#endif  // AJD_UTIL_FAILPOINT_H_
