#include "core/partition_counts.h"

#include <memory>
#include <vector>

#include "engine/partition.h"

namespace ajd {

namespace {

constexpr uint32_t kNoGroup = UINT32_MAX;

// Lowers cnt[g] from |g| (every row of C-group g its own side tuple) to the
// number of distinct side tuples in g: each stripped side block merges its
// |b| rows into one tuple. A side block with two or more rows shares its
// key, so its first row always carries a C-group label.
void FoldSideBlocks(const Partition& side, const std::vector<uint32_t>& label,
                    std::vector<uint64_t>* cnt) {
  for (uint32_t b = 0; b < side.NumBlocks(); ++b) {
    (*cnt)[label[*side.BlockBegin(b)]] -= side.BlockSize(b) - 1;
  }
}

}  // namespace

uint64_t DistinctCountAt(EntropyEngine* engine, const EpochPin& pin,
                         AttrSet attrs) {
  if (pin.rows == 0) return 0;
  if (attrs.Empty()) return 1;
  return engine->PartitionAt(attrs, pin)->NumDistinct(pin.rows);
}

MvdDomainSizes MvdDomainSizesAt(EntropyEngine* engine, const EpochPin& pin,
                                const Mvd& mvd) {
  MvdDomainSizes d;
  const AttrSet a_branch = mvd.side_a.Minus(mvd.lhs);
  const AttrSet b_branch = mvd.side_b.Minus(mvd.lhs);
  if (!a_branch.Empty()) d.d_a = DistinctCountAt(engine, pin, a_branch);
  if (!b_branch.Empty()) d.d_b = DistinctCountAt(engine, pin, b_branch);
  if (!mvd.lhs.Empty()) d.d_c = DistinctCountAt(engine, pin, mvd.lhs);
  return d;
}

uint64_t MvdJoinSizeAt(EntropyEngine* engine, const EpochPin& pin,
                       const Mvd& mvd) {
  const uint64_t n = pin.rows;
  const AttrSet key = mvd.side_a.Intersect(mvd.side_b);
  if (key.Empty()) {
    // Cross product of the distinct side tuples.
    return DistinctCountAt(engine, pin, mvd.side_a) *
           DistinctCountAt(engine, pin, mvd.side_b);
  }
  const std::shared_ptr<const Partition> c = engine->PartitionAt(key, pin);
  std::vector<uint32_t> label(n, kNoGroup);
  std::vector<uint64_t> cnt_a(c->NumBlocks());
  for (uint32_t g = 0; g < c->NumBlocks(); ++g) {
    for (const uint32_t* it = c->BlockBegin(g); it != c->BlockEnd(g); ++it) {
      label[*it] = g;
    }
    cnt_a[g] = c->BlockSize(g);
  }
  std::vector<uint64_t> cnt_b = cnt_a;
  FoldSideBlocks(*engine->PartitionAt(mvd.side_a, pin), label, &cnt_a);
  FoldSideBlocks(*engine->PartitionAt(mvd.side_b, pin), label, &cnt_b);
  // A key value held by one row joins exactly that row's two side tuples.
  uint64_t join = n - c->NumStrippedRows();
  for (uint32_t g = 0; g < c->NumBlocks(); ++g) join += cnt_a[g] * cnt_b[g];
  return join;
}

}  // namespace ajd
