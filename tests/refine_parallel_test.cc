// Refinement over the chunked partition layout and the kernel scratch that
// pool threads shed (engine/refine_kernels.h).
//
// A chunked (in-place extended) partition must refine exactly like its
// flat twin: byte-identical blocks, rows and delta, bit-identical count-only
// entropy. Kernel scratch is thread-local, so pool workers shed oversized
// buffers when they park, and every kernel stays exact across a spike and
// its shed. The TSan CI leg runs this file.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/column_store.h"
#include "engine/partition.h"
#include "engine/refine_kernels.h"
#include "engine/worker_pool.h"
#include "random/rng.h"
#include "test_util.h"

namespace ajd {
namespace {

// A synthetic store-densified column: codes assigned in first-occurrence
// order with first_row populated, which is what the in-place extension
// paths (the chunked-layout construction below) require. skew > 0
// concentrates mass on low draws.
Column DensifiedColumn(Rng* rng, uint32_t rows, uint32_t target_card,
                       double skew) {
  std::vector<uint32_t> raw(rows);
  for (uint32_t i = 0; i < rows; ++i) {
    if (skew == 0.0) {
      raw[i] = static_cast<uint32_t>(rng->UniformU64(target_card));
    } else {
      const double u = rng->NextDouble();
      uint32_t c =
          static_cast<uint32_t>(std::pow(u, 1.0 + skew) * target_card);
      raw[i] = c >= target_card ? target_card - 1 : c;
    }
  }
  // Densify: remap raw values to codes in first-occurrence order.
  std::vector<uint32_t> remap(target_card, UINT32_MAX);
  std::vector<uint32_t> codes(rows);
  std::vector<uint32_t> first_row;
  uint32_t next = 0;
  for (uint32_t i = 0; i < rows; ++i) {
    if (remap[raw[i]] == UINT32_MAX) {
      remap[raw[i]] = next++;
      first_row.push_back(i);
    }
    codes[i] = remap[raw[i]];
  }
  return MakeOwnedColumn(std::move(codes), next, std::move(first_row));
}

void ExpectSamePartition(const Partition& want, const Partition& got,
                         const std::string& what) {
  ASSERT_EQ(want.NumBlocks(), got.NumBlocks()) << what;
  ASSERT_EQ(want.NumStrippedRows(), got.NumStrippedRows()) << what;
  for (uint32_t b = 0; b < want.NumBlocks(); ++b) {
    ASSERT_EQ(want.BlockSize(b), got.BlockSize(b)) << what << " block " << b;
    const uint32_t* pw = want.BlockBegin(b);
    const uint32_t* pg = got.BlockBegin(b);
    for (uint32_t i = 0; i < want.BlockSize(b); ++i) {
      ASSERT_EQ(pw[i], pg[i]) << what << " block " << b << " row " << i;
    }
  }
}

TEST(RefineKernels, ChunkedLayoutMatchesFlatTwin) {
  // Partition::View() serves a chunked (in-place extended) partition as one
  // run per contiguous block stretch — many short runs instead of flat's
  // single run. Refining it, materialized or count-only and under every
  // kernel, must equal refining its flat twin.
  Rng rng(9503);
  constexpr uint32_t kRows = 100000;
  const uint32_t old_rows = kRows - kRows / 5;
  Column full = DensifiedColumn(&rng, kRows, 400, 0.5);
  // Prefix column over the first old_rows rows (dense prefix of a
  // densified column is itself densified; prefix cardinality = codes seen).
  std::vector<uint32_t> prefix_codes(full.codes.begin(),
                                     full.codes.begin() + old_rows);
  uint32_t prefix_card = 0;
  for (uint32_t c : prefix_codes) prefix_card = std::max(prefix_card, c + 1);
  std::vector<uint32_t> prefix_first(full.first_row.begin(),
                                     full.first_row.begin() + prefix_card);
  Column prefix = MakeOwnedColumn(std::move(prefix_codes), prefix_card,
                                  std::move(prefix_first));

  Partition chunked = Partition::OfColumn(prefix);
  chunked.ExtendOfColumnInPlace(full, old_rows);  // adopts chunked layout
  const Partition flat = Partition::OfColumn(full);
  ExpectSamePartition(flat, chunked, "chunked == flat baseline");
  PartitionViewScratch vs;
  ASSERT_GT(chunked.View(&vs).num_runs, 1u) << "expected a multi-run view";

  Column refine_col = DensifiedColumn(&rng, kRows, 3000, 1.0);
  for (RefineKernel kernel :
       {RefineKernel::kAuto, RefineKernel::kDense, RefineKernel::kSort}) {
    const std::string tag =
        "kernel=" + std::to_string(static_cast<int>(kernel));
    PartitionDelta want_delta;
    PartitionDelta got_delta;
    const Partition want = flat.RefinedBy(refine_col, kernel, &want_delta);
    ExpectSamePartition(want, chunked.RefinedBy(refine_col, kernel, &got_delta),
                        tag);
    EXPECT_EQ(want_delta.run_lengths, got_delta.run_lengths) << tag;
    EXPECT_EQ(want_delta.parent_first_rows, got_delta.parent_first_rows)
        << tag;
    EXPECT_EQ(flat.RefinedEntropy(refine_col, kRows, kernel),
              chunked.RefinedEntropy(refine_col, kRows, kernel))
        << tag;
  }
}

TEST(RefineScratchShed, ShedReleasesSpikesAndKeepsKernelsCorrect) {
  Rng rng(9504);
  const uint32_t rows = 120000;
  // A near-key column under the counting kernel sizes the code-indexed
  // scratch to ~rows entries — past the 64Ki keep threshold, and (capacity
  // == cardinality) NOT a spike by ScratchGuard's relative rule, so it
  // lingers after the call. That lingering allocation is exactly what the
  // shed targets.
  Column big = DensifiedColumn(&rng, rows, rows, 0.0);
  Partition base = Partition::Trivial(rows);
  Partition want = base.RefinedBy(big, RefineKernel::kDense);
  const size_t before = RefineScratchBytes();
  EXPECT_GT(before, size_t{1} << 20) << "expected a lingering spike";
  const size_t freed = ShedOversizedRefineScratch();
  EXPECT_GT(freed, 0u);
  EXPECT_LT(RefineScratchBytes(), before);
  // Every per-vector capacity is now at or under the keep threshold.
  EXPECT_LE(RefineScratchBytes(), size_t{9} * (size_t{1} << 16) * 8);
  // Shedding must not corrupt the scratch invariants (zeroed counters):
  // the same refinement replays byte-identically.
  ExpectSamePartition(want, base.RefinedBy(big, RefineKernel::kDense),
                      "post-shed counting refinement");
  // Repeated shed on already-small scratch is a no-op.
  ShedOversizedRefineScratch();
  EXPECT_EQ(ShedOversizedRefineScratch(), 0u);
}

TEST(RefineScratchShed, CountOnlyEntropyExactAcrossSpikeAndShed) {
  // The count-only last step of every miss leans on the same invariant as
  // the materializing kernels: the code-indexed counters are all-zero
  // between calls. A near-key spike, the small call whose ScratchGuard
  // sheds it, and an explicit park-shed must each leave that invariant
  // intact, so every entropy replays bit-identically.
  Rng rng(9506);
  const uint32_t small_rows = 1000;
  Column small = DensifiedColumn(&rng, small_rows, 7, 0.0);
  const Partition small_base =
      Partition::OfColumn(DensifiedColumn(&rng, small_rows, 5, 0.0));
  const double want_small =
      small_base.RefinedEntropy(small, small_rows, RefineKernel::kDense);

  // 1) Spike: a near-key column sizes the counter arrays past the keep
  //    threshold, and (capacity == cardinality) they linger after the call.
  const uint32_t rows = 120000;
  Column big = DensifiedColumn(&rng, rows, rows, 0.0);
  ASSERT_GT(big.cardinality, uint32_t{1} << 16);
  const Partition big_base = Partition::Trivial(rows);
  const double want_big =
      big_base.RefinedEntropy(big, rows, RefineKernel::kDense);
  EXPECT_GT(RefineScratchBytes(), size_t{1} << 20) << "expected a spike";

  // 2) A small call judges the spike against its own cardinality and sheds
  //    it on the way out; its value must not see the old counters.
  EXPECT_EQ(want_small,
            small_base.RefinedEntropy(small, small_rows, RefineKernel::kDense));
  EXPECT_LE(RefineScratchBytes(), size_t{9} * (size_t{1} << 16) * 8);

  // 3) Re-spike, park-shed, then replay both sizes on the shed scratch.
  EXPECT_EQ(want_big, big_base.RefinedEntropy(big, rows, RefineKernel::kDense));
  EXPECT_GT(ShedOversizedRefineScratch(), 0u);
  EXPECT_EQ(want_small,
            small_base.RefinedEntropy(small, small_rows, RefineKernel::kDense));
  EXPECT_EQ(want_big, big_base.RefinedEntropy(big, rows, RefineKernel::kDense));
}

TEST(RefineScratchShed, PoolThreadsShedScratchWhenParking) {
  // A batch whose tasks spike thread-local kernel scratch on the pool's
  // worker threads must not pin those allocations for the pool's
  // lifetime: each worker sheds oversized scratch when it parks after the
  // batch. A later batch observes every WORKER thread (the submitter
  // participates too but never parks, so it is exempt) back under the
  // keep threshold.
  Rng rng(9505);
  // Rows chosen so the densified cardinality (~63% of rows) clears the
  // 64Ki keep threshold: the code-indexed counter arrays must be in the
  // shed's jurisdiction, not under its keep allowance.
  const uint32_t rows = 200000;
  Column big = DensifiedColumn(&rng, rows, rows, 0.0);
  WorkerPool pool;

  // On a loaded single-core machine the submitter can drain a whole batch
  // before any worker wakes, so worker participation is forced, not hoped
  // for: every task first rendezvouses until a second thread has entered
  // the batch. The submitter's first task then blocks until a worker has
  // claimed one — the pool's per-index fetch_add handout guarantees the
  // woken worker finds work. The 60s bound only un-wedges the test on a
  // broken pool; the participation assertions below still fail then.
  struct Rendezvous {
    std::mutex mu;
    std::condition_variable cv;
    std::set<std::thread::id> seen;
    void Arrive() {
      std::unique_lock<std::mutex> lock(mu);
      seen.insert(std::this_thread::get_id());
      cv.notify_all();
      cv.wait_for(lock, std::chrono::seconds(60),
                  [&] { return seen.size() >= 2; });
    }
  };

  Rendezvous spike_barrier;
  std::function<void(size_t)> spike = [&](size_t) {
    spike_barrier.Arrive();
    Partition::Trivial(rows).RefinedBy(big, RefineKernel::kDense);
    // The spike is live on this thread right now (capacity tracks the
    // near-key cardinality, which ScratchGuard's relative rule keeps).
    EXPECT_GT(RefineScratchBytes(), size_t{1} << 20);
  };
  pool.Run(4, 4, spike);
  ASSERT_GE(spike_barrier.seen.size(), 2u)
      << "no worker thread ran a spike task";

  const std::thread::id submitter = std::this_thread::get_id();
  // Workers that ran the spike batch shed before re-parking (the shed
  // happens between TakeBatchShare and the park), and any worker must
  // re-park before it can claim the next batch's share — so by the time a
  // second batch's task runs on a worker thread, that thread's scratch is
  // bounded again.
  constexpr size_t kKeepBound = size_t{17} * (size_t{1} << 16) * 8;
  std::atomic<int> worker_tasks{0};
  Rendezvous check_barrier;
  std::function<void(size_t)> check = [&](size_t) {
    check_barrier.Arrive();
    if (std::this_thread::get_id() == submitter) return;
    ++worker_tasks;
    EXPECT_LE(RefineScratchBytes(), kKeepBound);
  };
  pool.Run(8, 4, check);
  EXPECT_GT(worker_tasks.load(), 0);
}

}  // namespace
}  // namespace ajd
