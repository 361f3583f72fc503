#include "engine/worker_pool.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>

#if defined(__linux__)
#include <sched.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "engine/refine_kernels.h"

namespace ajd {

namespace {

// CPUs granted by the cgroup v2 `cpu.max` of the process's own cgroup
// ("<quota> <period>", or "max <period>" for none), rounded up; 0 when
// there is no quota or no cgroup v2 hierarchy to read it from.
uint32_t CgroupCpuLimit() {
  std::string dir;
  std::ifstream self("/proc/self/cgroup");
  for (std::string line; std::getline(self, line);) {
    if (line.rfind("0::", 0) == 0) {
      dir = line.substr(3);
      break;
    }
  }
  const std::string paths[] = {"/sys/fs/cgroup" + dir + "/cpu.max",
                               "/sys/fs/cgroup/cpu.max"};
  for (const std::string& path : paths) {
    std::ifstream f(path);
    std::string quota;
    double period = 0;
    if (!(f >> quota >> period)) continue;
    if (quota == "max" || period <= 0) return 0;
    const double cpus = std::ceil(std::stod(quota) / period);
    return cpus < 1 ? 1 : static_cast<uint32_t>(cpus);
  }
  return 0;
}

uint32_t ResolveEffectiveCpuCount() {
  const uint32_t hw = std::thread::hardware_concurrency();
  uint32_t cpus = hw;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    cpus = static_cast<uint32_t>(CPU_COUNT(&set));
  }
#endif
  try {
    const uint32_t quota = CgroupCpuLimit();
    if (quota != 0 && (cpus == 0 || quota < cpus)) cpus = quota;
  } catch (const std::exception&) {
    // An unparsable cpu.max limits nothing.
  }
  if (hw != 0) cpus = std::min(cpus, hw);
  return std::max(cpus, 1u);
}

}  // namespace

uint32_t EffectiveCpuCount() {
  static const uint32_t count = ResolveEffectiveCpuCount();
  return count;
}

namespace {

// Caps glibc malloc at ONE arena before the pool spawns its first worker
// (once per process; a no-op elsewhere, and when the environment sets
// MALLOC_ARENA_MAX). This is a process-global allocator setting. Pool
// workers build most of the partitions the engine caches, glibc gives
// every new thread a private arena, and memory freed back into a worker's
// arena is reusable by that arena only, so the process footprint drifts
// toward the SUM of the arenas' high-water marks rather than their joint
// peak. Measured on a 4-CPU x86-64 host with default threads: twelve
// mines of the e2e fit relation in one process crept from 330 to 354 MiB
// peak RSS with per-thread arenas and held at 332 MiB with one (serial:
// 332), and the e2e restart sequence peaked at 346-355 MiB against
// 318-323 MiB. Round times stayed within run-to-run noise: the engine
// allocates a few buffers per refinement, far below the rate at which one
// arena lock contends.
void ShareMallocArenas() {
#if defined(__GLIBC__)
  static std::once_flag once;
  std::call_once(once, [] {
    // An explicit MALLOC_ARENA_MAX is the operator's choice; keep it.
    if (std::getenv("MALLOC_ARENA_MAX") == nullptr) mallopt(M_ARENA_MAX, 1);
  });
#endif
}

}  // namespace

WorkerPool::WorkerPool() = default;

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

namespace {

// Inline fallback shared by the workers<=1 and busy-pool paths: run every
// index even if one throws, then surface the first failure — identical
// semantics to a pool-run batch.
void RunInlineContained(size_t n, const std::function<void(size_t)>& fn) {
  std::exception_ptr first_error;
  for (size_t i = 0; i < n; ++i) {
    try {
      fn(i);
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

// True while this thread is inside a Run() it submitted or is helping
// with: a nested Run from such a frame must not touch submit_mu_ at all
// (the submitter's own frame already OWNS it, and try_lock on a mutex the
// thread holds is undefined for std::mutex) — it degrades straight to the
// inline loop, which is the documented nested-submission contract.
thread_local bool t_in_batch = false;

}  // namespace

void WorkerPool::Run(size_t n, uint32_t workers,
                     const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (workers <= 1 || t_in_batch) {
    RunInlineContained(n, fn);
    return;
  }
  std::unique_lock<std::mutex> submit(submit_mu_, std::try_to_lock);
  if (!submit.owns_lock()) {
    // Another engine's batch owns the pool. Parking here would serialize
    // cross-engine fan-outs end to end — with one session sharding many
    // relations, a sweep's second engine would idle behind the first's
    // whole batch. The calling thread exists either way, so spend it:
    // process this batch inline and leave the roster to the batch that
    // got there first. Values land in the same caches either way (every
    // entropy is independent of which thread computed it).
    RunInlineContained(n, fn);
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->fn = &fn;
  batch->n = n;
  batch->max_helpers = workers - 1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (threads_.size() + 1 < workers) ShareMallocArenas();
    while (threads_.size() + 1 < workers) {
      threads_.emplace_back([this] { WorkerLoop(); });
    }
    batch_ = batch;
    ++epoch_;
  }
  wake_cv_.notify_all();
  TakeBatchShare(batch.get());
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return batch->completed.load() == n; });
  }
  // All tasks finished (completed == n observed above), so first_error is
  // final; the lock orders its write with this read.
  std::exception_ptr first_error;
  {
    std::lock_guard<std::mutex> elock(batch->err_mu);
    first_error = batch->first_error;
  }
  if (first_error) std::rethrow_exception(first_error);
}

size_t WorkerPool::NumThreads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return threads_.size();
}

const std::shared_ptr<WorkerPool>& WorkerPool::Shared() {
  static const std::shared_ptr<WorkerPool> pool =
      std::make_shared<WorkerPool>();
  return pool;
}

void WorkerPool::TakeBatchShare(Batch* batch) {
  const size_t n = batch->n;
  // Mark the thread batch-bound for the duration: a task that submits a
  // nested Run is routed straight to the inline loop (see t_in_batch).
  const bool was_in_batch = t_in_batch;
  t_in_batch = true;
  while (true) {
    size_t i = batch->next.fetch_add(1);
    if (i >= n) {
      t_in_batch = was_in_batch;
      return;
    }
    try {
      (*batch->fn)(i);
    } catch (...) {
      // Contain the failure: record the first one for the submitter and
      // keep counting this index as completed so the batch latch can
      // never deadlock and no pool thread unwinds into std::terminate.
      std::lock_guard<std::mutex> elock(batch->err_mu);
      if (!batch->first_error) batch->first_error = std::current_exception();
    }
    if (batch->completed.fetch_add(1) + 1 == n) {
      // Notify under the waiter's mutex so the wakeup cannot be missed.
      std::lock_guard<std::mutex> lock(mu_);
      done_cv_.notify_all();
    }
  }
}

void WorkerPool::WorkerLoop() {
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    wake_cv_.wait(lock, [&] { return shutdown_ || epoch_ != seen; });
    if (shutdown_) return;
    seen = epoch_;
    // Snapshot the batch under the lock: a worker waking after this batch
    // already finished (and a new one started) must share in the state its
    // epoch observation belongs to, never a recycled slot.
    std::shared_ptr<Batch> batch = batch_;
    lock.unlock();
    if (batch->helpers.fetch_add(1) < batch->max_helpers) {
      TakeBatchShare(batch.get());
    }
    // About to park: shed any kernel scratch this batch spiked on this
    // thread. ScratchGuard's end-of-call shed polices a single refinement,
    // but its steady-state keep allowance would otherwise linger on every
    // pool thread for the pool's lifetime — N threads x keep-sized buffers
    // held by a pool that may see no refinement work for hours. Outside
    // the lock: shedding is thread-local and must not extend the roster's
    // critical section.
    ShedOversizedRefineScratch();
    lock.lock();
  }
}

}  // namespace ajd
