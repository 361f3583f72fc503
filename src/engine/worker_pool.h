// WorkerPool: a persistent, lazily-spawned batch-work pool shared across
// EntropyEngines.
//
// Every engine used to own a private pool, so a many-relation sweep (one
// engine per relation, all batching at once) oversubscribed the machine:
// R relations x T threads each. The pool is now owned at session scope —
// AnalysisSession resolves one pool for all of its engines, and the
// process-wide default pool is shared by everything that doesn't ask for
// its own — and SERIALIZES batches: one batch runs at a time, so the
// thread roster is bounded by the widest single batch, never by the number
// of engines.
//
// Workers are spawned lazily on first use and parked between batches (the
// miner submits one small batch per build step, so per-batch thread spawns
// would dominate the work).
//
// A submitter that finds the pool busy does NOT wait: it processes its own
// batch inline on the calling thread. Sharded sessions batch from several
// engines at once (engine/cache_arbiter.h charges concurrently either
// way), and head-of-line blocking behind another relation's fan-out would
// waste exactly the thread the submitter already owns. The same fallback
// makes NESTED submission safe: a pool task that itself calls Run() finds
// submit_mu_ held by its own enclosing batch and degrades to the inline
// loop — serial on that task's thread, never a deadlock.
//
// Before its first worker spawns, the pool caps glibc malloc at one arena
// for the whole process (worker_pool.cc has the measurements): workers
// build the partitions the cache keeps, and per-thread arenas would let
// freed partitions strand memory only their own worker can reuse.
//
// Workers shed oversized thread-local kernel scratch (refine_kernels.h's
// ShedOversizedRefineScratch) each time they park: ScratchGuard polices a
// single call's spike, but its keep allowance would otherwise linger on
// every pool thread for the pool's lifetime.
//
// Failure semantics: a task that throws is CONTAINED. The exception never
// reaches a pool thread's top frame (no std::terminate) and never strands
// the batch latch — every index of the batch is still claimed and counted,
// remaining tasks run to completion, and the FIRST exception (in completion
// order) is rethrown on the submitting thread after the batch drains. The
// workers<=1 and busy-pool inline fallbacks behave identically: finish the
// whole index range, then rethrow the first failure. The pool itself stays
// healthy across a throwing batch (basic guarantee for the pool, and the
// submitter sees exactly one exception per failed batch).
#ifndef AJD_ENGINE_WORKER_POOL_H_
#define AJD_ENGINE_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ajd {

/// The number of CPUs this process can actually run on: the scheduler
/// affinity mask's count, capped by the cgroup v2 `cpu.max` quota when one
/// is set (rounded up to whole CPUs), and never more than
/// std::thread::hardware_concurrency() nor less than 1. Every "0 threads
/// means all of them" knob (EngineOptions::num_threads) resolves through
/// this, so a container granted two of a host's 64 cores runs two
/// workers, not 64. Resolved once per process and cached.
uint32_t EffectiveCpuCount();

/// Shared batch pool. Thread-safe; concurrent Run() calls from different
/// engines queue behind one another instead of fighting for cores.
class WorkerPool {
 public:
  WorkerPool();
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs fn(0..n-1) with up to `workers` total participants (the calling
  /// thread included), blocking until every index is processed. With
  /// workers <= 1 — or when another submitter's batch currently owns the
  /// pool — the calling thread simply loops; no pool involvement, no
  /// waiting behind the other batch.
  ///
  /// If any fn(i) throws, every remaining index still runs, the batch
  /// completes, and the first exception raised is rethrown here on the
  /// calling thread. Pool threads survive.
  void Run(size_t n, uint32_t workers, const std::function<void(size_t)>& fn);

  /// Number of parked worker threads currently spawned.
  size_t NumThreads() const;

  /// The process-wide default pool: what every AnalysisSession (and every
  /// stand-alone engine) uses unless EngineOptions::worker_pool injects a
  /// different one.
  static const std::shared_ptr<WorkerPool>& Shared();

 private:
  /// One batch in flight. Heap-held via shared_ptr so a worker waking late
  /// for an already-finished batch touches valid (exhausted) state instead
  /// of a reused slot. `fn` points into the submitting frame; it is only
  /// dereferenced for claimed indexes < n, all of which are processed
  /// before the submitter returns.
  struct Batch {
    const std::function<void(size_t)>* fn = nullptr;
    size_t n = 0;
    /// Parked workers beyond this many skip the batch: notify_all wakes
    /// the whole roster, but a batch sized for fewer participants must not
    /// pay the contention of all of them.
    uint32_t max_helpers = 0;
    std::atomic<uint32_t> helpers{0};
    std::atomic<size_t> next{0};
    std::atomic<size_t> completed{0};
    /// First exception thrown by any task of this batch (completion
    /// order); rethrown on the submitter once the batch drains. Guarded by
    /// err_mu; the submitter reads it only after observing completed == n.
    std::mutex err_mu;
    std::exception_ptr first_error;
  };

  /// Claims and processes indexes of `batch` until none remain; notifies
  /// the submitter when the last index completes.
  void TakeBatchShare(Batch* batch);

  /// The parked worker loop: wait for a new batch epoch, share in it,
  /// repeat until shutdown.
  void WorkerLoop();

  /// Serializes batches across submitters (one batch at a time); mu_
  /// guards the worker roster, the current-batch slot, and the epoch
  /// counter the parked workers watch.
  std::mutex submit_mu_;
  mutable std::mutex mu_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;
  std::shared_ptr<Batch> batch_;
  uint64_t epoch_ = 0;
  bool shutdown_ = false;
};

}  // namespace ajd

#endif  // AJD_ENGINE_WORKER_POOL_H_
