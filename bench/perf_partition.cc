// Experiment PERF-PARTITION — kernel-by-kernel ns/row of the partition
// refinement suite (engine/refine_kernels.h) over cardinality and skew
// sweeps, the append-extension layouts, and the intra-op sharded forms.
//
// The adaptive thresholds (kDenseCardinalityMax, the sort cutover at
// cardinality >= mass, the SIMD block gate) were picked from this sweep;
// rerun it when the hardware changes. Every timed case first asserts that
// the kernel under test produces output IDENTICAL to the reference scalar
// path — block boundaries, block order, row order, and bit-for-bit entropy
// — so the bench doubles as an equivalence guard and exits 1 on mismatch.
//
// One machine-readable JSON line per case. `--smoke` shrinks sizes to keep
// the guard and the emitter alive in CI, where shared-runner timings mean
// nothing.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/column_store.h"
#include "engine/partition.h"
#include "engine/refine_kernels.h"
#include "engine/worker_pool.h"
#include "random/rng.h"

namespace {

using namespace ajd;

double NowNs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// A synthetic dense column. skew == 0 is uniform; higher skews concentrate
// mass on low codes (u^(1+skew) keeps codes in range and head-heavy), with
// code 0 re-densified so every code < cardinality stays possible.
Column MakeColumn(uint32_t rows, uint32_t cardinality, double skew,
                  Rng* rng) {
  std::vector<uint32_t> codes(rows);
  for (uint32_t i = 0; i < rows; ++i) {
    if (skew == 0.0) {
      codes[i] = static_cast<uint32_t>(rng->UniformU64(cardinality));
    } else {
      const double u = rng->NextDouble();
      const double v = std::pow(u, 1.0 + skew);
      uint32_t c = static_cast<uint32_t>(v * cardinality);
      codes[i] = c >= cardinality ? cardinality - 1 : c;
    }
  }
  return MakeOwnedColumn(std::move(codes), cardinality);
}

// First-occurrence densification of a raw value stream with the first_row
// table (the store's contract, which delta extension requires). Prefix-
// consistent: every cut of the stream shares the same dense codes.
void DensifyStream(const std::vector<uint32_t>& raw,
                   std::vector<uint32_t>* codes,
                   std::vector<uint32_t>* first_row) {
  std::unordered_map<uint32_t, uint32_t> remap;
  codes->reserve(raw.size());
  for (uint32_t i = 0; i < raw.size(); ++i) {
    auto [it, fresh] =
        remap.emplace(raw[i], static_cast<uint32_t>(first_row->size()));
    if (fresh) first_row->push_back(i);
    codes->push_back(it->second);
  }
}

Column ColumnAtCut(const std::vector<uint32_t>& codes,
                   const std::vector<uint32_t>& first_row, uint32_t n) {
  const uint32_t card = static_cast<uint32_t>(
      std::lower_bound(first_row.begin(), first_row.end(), n) -
      first_row.begin());
  return MakeOwnedColumn(
      std::vector<uint32_t>(codes.begin(), codes.begin() + n), card,
      std::vector<uint32_t>(first_row.begin(), first_row.begin() + card));
}

bool SamePartition(const Partition& a, const Partition& b) {
  if (a.NumBlocks() != b.NumBlocks()) return false;
  if (a.NumStrippedRows() != b.NumStrippedRows()) return false;
  for (uint32_t blk = 0; blk < a.NumBlocks(); ++blk) {
    if (a.BlockSize(blk) != b.BlockSize(blk)) return false;
    const uint32_t* pa = a.BlockBegin(blk);
    const uint32_t* pb = b.BlockBegin(blk);
    for (uint32_t i = 0; i < a.BlockSize(blk); ++i) {
      if (pa[i] != pb[i]) return false;
    }
  }
  return true;
}

bool g_all_ok = true;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "MISMATCH: %s\n", what);
    g_all_ok = false;
  }
}

const char* KernelName(RefineKernel k) {
  switch (k) {
    case RefineKernel::kAuto:
      return "auto";
    case RefineKernel::kDense:
      return "dense";
    case RefineKernel::kMid:
      return "mid";
    case RefineKernel::kSort:
      return "sort";
  }
  return "?";
}

// Times fn() (already-verified work) and returns the best-of-reps wall ns.
template <typename Fn>
double TimeNs(int reps, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double t0 = NowNs();
    fn();
    const double dt = NowNs() - t0;
    if (r == 0 || dt < best) best = dt;
  }
  return best;
}

void EmitLine(bool smoke, const char* op, const char* kernel, uint32_t rows,
              uint64_t mass, uint32_t cardinality, double skew,
              double ns_per_row) {
  std::printf(
      "{\"bench\":\"perf_partition\",\"smoke\":%s,\"op\":\"%s\","
      "\"kernel\":\"%s\",\"rows\":%u,\"mass\":%llu,\"cardinality\":%u,"
      "\"skew\":%.1f,\"ns_per_row\":%.2f,\"simd\":%s}\n",
      smoke ? "true" : "false", op, kernel, rows,
      static_cast<unsigned long long>(mass), cardinality, skew, ns_per_row,
      SimdTallyEnabled() ? "true" : "false");
}

// A line from the intra-op sharded sweep. threads == 0 is the serial
// reference arm.
void EmitParLine(bool smoke, const char* op, uint32_t threads, uint32_t rows,
                 uint64_t mass, uint32_t cardinality, double ns_per_row) {
  std::printf(
      "{\"bench\":\"perf_partition\",\"smoke\":%s,\"op\":\"%s\","
      "\"threads\":%u,\"rows\":%u,\"mass\":%llu,\"cardinality\":%u,"
      "\"ns_per_row\":%.2f,\"simd\":%s}\n",
      smoke ? "true" : "false", op, threads, rows,
      static_cast<unsigned long long>(mass), cardinality, ns_per_row,
      SimdTallyEnabled() ? "true" : "false");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::vector<uint32_t> par_threads = {1, 2, 4};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      par_threads.clear();
      for (const char* p = argv[++i]; *p != '\0';) {
        char* end = nullptr;
        const unsigned long v = std::strtoul(p, &end, 10);
        if (end == p) break;
        if (v > 0) par_threads.push_back(static_cast<uint32_t>(v));
        p = *end == ',' ? end + 1 : end;
      }
      if (par_threads.empty()) par_threads = {1, 2, 4};
    }
  }
  const uint32_t kRows = smoke ? 20000 : 1000000;
  const int kReps = smoke ? 1 : 3;
  Rng rng(20260730);

  // The base partition every kernel refines: a medium-cardinality grouping,
  // so blocks span the tiny-to-large spectrum the engine actually sees.
  Column base_col = MakeColumn(kRows, 64, 0.0, &rng);
  Partition base = Partition::OfColumn(base_col);
  const uint64_t mass = base.NumStrippedRows();

  const std::vector<uint32_t> cards = {4,     64,        4096,
                                       65536, kRows / 2, 2 * kRows};
  const std::vector<double> skews = {0.0, 3.0};
  for (uint32_t card : cards) {
    for (double skew : skews) {
      Column col = MakeColumn(kRows, card, skew, &rng);
      // Reference outputs from the forced-scalar path.
      Partition ref = base.RefinedBy(col, RefineKernel::kDense);
      const double ref_h = base.RefinedEntropy(col, kRows,
                                               RefineKernel::kDense);
      for (RefineKernel k : {RefineKernel::kDense, RefineKernel::kMid,
                             RefineKernel::kSort, RefineKernel::kAuto}) {
        Check(SamePartition(ref, base.RefinedBy(col, k)),
              "RefinedBy kernel vs dense");
        Check(ref_h == base.RefinedEntropy(col, kRows, k),
              "RefinedEntropy kernel vs dense (bitwise)");
        const double refine_ns =
            TimeNs(kReps, [&] { base.RefinedBy(col, k); });
        EmitLine(smoke, "refine", KernelName(k), kRows, mass, card, skew,
                 refine_ns / static_cast<double>(mass));
        const double entropy_ns =
            TimeNs(kReps, [&] { base.RefinedEntropy(col, kRows, k); });
        EmitLine(smoke, "entropy", KernelName(k), kRows, mass, card, skew,
                 entropy_ns / static_cast<double>(mass));
      }
    }
  }

  // --- Uniform append-extension sweep: chunked in-place vs flat copy ----
  //
  // A uniform (zero temporal locality) append stream is the flat layout's
  // worst case: every batch touches essentially every block, so the copy
  // paths rewrite the whole mass per batch while the chunked in-place
  // paths append each batch into per-block tail slack. Timed per APPENDED
  // row; both arms' final partitions are pinned bitwise against cold
  // builds over the full stream (the exit-1 guard).
  //
  // The cardinality is sized so the value set SATURATES over the base
  // rows (every (parent, code) pair already owns a sub-block before the
  // first batch): what the sweep measures is the steady-state delta path,
  // not the transient where brand-new codes force per-block re-refinement
  // on copy and in-place arms alike.
  {
    const uint32_t kBase = kRows;
    const uint32_t kBatches = 16;
    const uint32_t kBatch = smoke ? 500 : 8192;
    const uint32_t kTotal = kBase + kBatches * kBatch;
    const uint32_t kExtCard = 512;
    const uint64_t appended = kTotal - kBase;

    std::vector<uint32_t> raw(kTotal);
    for (auto& v : raw) v = static_cast<uint32_t>(rng.UniformU64(kExtCard));
    std::vector<uint32_t> ext_codes, ext_first;
    DensifyStream(raw, &ext_codes, &ext_first);
    for (auto& v : raw) v = static_cast<uint32_t>(rng.UniformU64(64));
    std::vector<uint32_t> par_codes, par_first;
    DensifyStream(raw, &par_codes, &par_first);

    std::vector<uint32_t> cuts;
    std::vector<Column> ext_cols;
    std::vector<Partition> parents;  // cold per cut, outside all timers
    for (uint32_t i = 1; i <= kBatches; ++i) {
      const uint32_t cut = kBase + i * kBatch;
      cuts.push_back(cut);
      ext_cols.push_back(ColumnAtCut(ext_codes, ext_first, cut));
      parents.push_back(
          Partition::OfColumn(ColumnAtCut(par_codes, par_first, cut)));
    }
    const Column ext0 = ColumnAtCut(ext_codes, ext_first, kBase);
    const Column par0 = ColumnAtCut(par_codes, par_first, kBase);
    const Partition root0 = Partition::OfColumn(ext0);
    const Partition parent0 = Partition::OfColumn(par0);
    PartitionDelta meta0;
    const Partition child0 = parent0.RefinedBy(ext0, RefineKernel::kAuto,
                                               &meta0);

    // Per-rep state reset happens OUTSIDE the timer so both arms time
    // exactly the extension calls.
    Partition final_flat_root, final_chunked_root;
    Partition final_flat_child, final_chunked_child;
    double flat_root_ns = 0, chunked_root_ns = 0;
    double flat_child_ns = 0, chunked_child_ns = 0;
    for (int r = 0; r < kReps; ++r) {
      {
        Partition p = root0;
        const double t0 = NowNs();
        uint64_t prev = kBase;
        for (uint32_t i = 0; i < kBatches; ++i) {
          p = p.ExtendedOfColumn(ext_cols[i], prev);
          prev = cuts[i];
        }
        const double dt = NowNs() - t0;
        if (r == 0 || dt < flat_root_ns) flat_root_ns = dt;
        final_flat_root = std::move(p);
      }
      {
        Partition p = root0;
        const double t0 = NowNs();
        uint64_t prev = kBase;
        for (uint32_t i = 0; i < kBatches; ++i) {
          p.ExtendOfColumnInPlace(ext_cols[i], prev);
          prev = cuts[i];
        }
        const double dt = NowNs() - t0;
        if (r == 0 || dt < chunked_root_ns) chunked_root_ns = dt;
        final_chunked_root = std::move(p);
      }
      {
        Partition c = child0;
        PartitionDelta meta = meta0;
        const double t0 = NowNs();
        uint64_t prev = kBase;
        for (uint32_t i = 0; i < kBatches; ++i) {
          PartitionDelta next;
          c = c.ExtendedBy(nullptr, parents[i], ext_cols[i], prev, &meta,
                           &next);
          meta = std::move(next);
          prev = cuts[i];
        }
        const double dt = NowNs() - t0;
        if (r == 0 || dt < flat_child_ns) flat_child_ns = dt;
        final_flat_child = std::move(c);
      }
      {
        Partition c = child0;
        PartitionDelta meta = meta0;
        const double t0 = NowNs();
        uint64_t prev = kBase;
        for (uint32_t i = 0; i < kBatches; ++i) {
          PartitionDelta next;
          c.ExtendInPlaceBy(nullptr, parents[i], ext_cols[i], prev, &meta,
                            &next);
          meta = std::move(next);
          prev = cuts[i];
        }
        const double dt = NowNs() - t0;
        if (r == 0 || dt < chunked_child_ns) chunked_child_ns = dt;
        final_chunked_child = std::move(c);
      }
    }

    const Partition cold_root =
        Partition::OfColumn(ColumnAtCut(ext_codes, ext_first, kTotal));
    const Partition cold_child =
        parents.back().RefinedBy(ext_cols.back());
    Check(SamePartition(final_flat_root, cold_root),
          "extend_root flat vs cold");
    Check(SamePartition(final_chunked_root, cold_root),
          "extend_root chunked vs cold");
    Check(SamePartition(final_flat_child, cold_child),
          "extend_child flat vs cold");
    Check(SamePartition(final_chunked_child, cold_child),
          "extend_child chunked vs cold");

    const double ap = static_cast<double>(appended);
    EmitLine(smoke, "extend_root", "flat", kTotal, appended, kExtCard, 0.0,
             flat_root_ns / ap);
    EmitLine(smoke, "extend_root", "chunked", kTotal, appended, kExtCard,
             0.0, chunked_root_ns / ap);
    EmitLine(smoke, "extend_child", "flat", kTotal, appended, kExtCard, 0.0,
             flat_child_ns / ap);
    EmitLine(smoke, "extend_child", "chunked", kTotal, appended, kExtCard,
             0.0, chunked_child_ns / ap);
    std::fprintf(stderr,
                 "extend speedup (flat/chunked, uniform stream): root %.2fx"
                 " child %.2fx\n",
                 flat_root_ns / chunked_root_ns,
                 flat_child_ns / chunked_child_ns);
  }

  // --- Intra-op sharded refinement: serial vs block-sharded ------------
  //
  // One refinement split into contiguous mass-balanced shards on a
  // WorkerPool, at each --threads count (default 1,2,4). The guard here is
  // EXACT, not tolerance-based: the sharded partition must be
  // byte-identical to the serial one (block order, row order, delta
  // vectors) and every entropy bit-equal, at EVERY thread count — that is
  // the engine's thread-count-independence contract, and any divergence
  // flips the exit code to 1. Rows stay above three shard masses even
  // under --smoke so CI exercises real multi-shard merges, not the serial
  // degrade path.
  {
    const uint32_t kParRows =
        std::max<uint32_t>(kRows, 3 * kShardedRefineShardMass + 4321);
    WorkerPool pool;
    Rng prng(20260808);
    Column pbase_col = MakeColumn(kParRows, 64, 0.0, &prng);
    Partition pbase = Partition::OfColumn(pbase_col);
    const uint64_t pmass = pbase.NumStrippedRows();
    const double pmassd = static_cast<double>(pmass);
    double best_refine_speedup = 0.0;
    uint32_t best_refine_threads = 0;
    for (uint32_t card : {uint32_t{4096}, kParRows / 4}) {
      Column col = MakeColumn(kParRows, card, 0.0, &prng);
      PartitionDelta ref_delta;
      const Partition ref =
          pbase.RefinedBy(col, RefineKernel::kAuto, &ref_delta);
      const double ref_h =
          pbase.RefinedEntropy(col, kParRows, RefineKernel::kAuto);
      const double serial_refine_ns = TimeNs(
          kReps, [&] { pbase.RefinedBy(col, RefineKernel::kAuto); });
      const double serial_entropy_ns = TimeNs(kReps, [&] {
        pbase.RefinedEntropy(col, kParRows, RefineKernel::kAuto);
      });
      EmitParLine(smoke, "refine_sharded", 0, kParRows, pmass, card,
                  serial_refine_ns / pmassd);
      EmitParLine(smoke, "entropy_sharded", 0, kParRows, pmass, card,
                  serial_entropy_ns / pmassd);
      for (uint32_t t : par_threads) {
        PartitionDelta d;
        const Partition sharded =
            pbase.RefinedBySharded(col, RefineKernel::kAuto, t, &pool, &d);
        Check(SamePartition(ref, sharded), "sharded RefinedBy vs serial");
        Check(d.run_lengths == ref_delta.run_lengths &&
                  d.parent_first_rows == ref_delta.parent_first_rows,
              "sharded delta vs serial");
        Check(ref_h == pbase.RefinedEntropySharded(
                           col, kParRows, RefineKernel::kAuto, t, &pool),
              "sharded RefinedEntropy vs serial (bitwise)");
        const double refine_ns = TimeNs(kReps, [&] {
          pbase.RefinedBySharded(col, RefineKernel::kAuto, t, &pool);
        });
        const double entropy_ns = TimeNs(kReps, [&] {
          pbase.RefinedEntropySharded(col, kParRows, RefineKernel::kAuto, t,
                                      &pool);
        });
        EmitParLine(smoke, "refine_sharded", t, kParRows, pmass, card,
                    refine_ns / pmassd);
        EmitParLine(smoke, "entropy_sharded", t, kParRows, pmass, card,
                    entropy_ns / pmassd);
        const double speedup = serial_refine_ns / refine_ns;
        if (speedup > best_refine_speedup) {
          best_refine_speedup = speedup;
          best_refine_threads = t;
        }
      }
    }

    std::fprintf(stderr,
                 "sharded refine best speedup: %.2fx at %u threads\n",
                 best_refine_speedup, best_refine_threads);
  }

  // Near-key OfColumn: the sort path must match the counting construction.
  {
    Column near_key = MakeColumn(kRows, 2 * kRows, 0.0, &rng);
    Partition via_sort = Partition::OfColumn(near_key);
    Partition via_refine =
        Partition::Trivial(kRows).RefinedBy(near_key, RefineKernel::kDense);
    // OfColumn emits blocks in code order; Trivial-refine in
    // first-occurrence order. For a non-densified synthetic column the two
    // orders differ, so compare mass/blocks plus entropy (order-free).
    Check(via_sort.NumStrippedRows() == via_refine.NumStrippedRows(),
          "near-key OfColumn stripped mass");
    Check(via_sort.NumBlocks() == via_refine.NumBlocks(),
          "near-key OfColumn block count");
    Check(std::abs(via_sort.EntropyNats(kRows) -
                   via_refine.EntropyNats(kRows)) < 1e-12,
          "near-key OfColumn entropy");
    EmitLine(smoke, "of_column_near_key", "sort", kRows, kRows, 2 * kRows,
             0.0,
             TimeNs(kReps, [&] { Partition::OfColumn(near_key); }) /
                 static_cast<double>(kRows));
  }

  return g_all_ok ? 0 : 1;
}
