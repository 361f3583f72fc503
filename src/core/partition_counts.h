// Exact counts read off the stripped partitions an EntropyEngine holds
// (engine/partition.h), so analysis after mining reuses the groupings the
// miner already built instead of hashing the relation again:
//
//   - the active-domain size |Pi_X(R)| is the partition's distinct count,
//     blocks + (N - stripped mass);
//   - the MVD join size |Pi_A(R) join Pi_B(R)| on the key C = A cap B is
//     sum over C-groups of (distinct A-values x distinct B-values in the
//     group), and every A-block lies inside one C-group, so the per-group
//     distinct counts come from one scan of A's and B's blocks against a
//     row -> C-group label array. Nothing is materialized ("Safe Subjoins
//     in Acyclic Joins": these subjoin sizes are functions of the
//     projections' groupings).
//
// Every function reads at one EpochPin: the result is the exact count over
// the first pin.rows rows, equal to the hash-based CountDistinct
// (relation/ops.h) and ComputeMvdLoss(r, mvd) (core/loss.h) over that
// prefix.
#ifndef AJD_CORE_PARTITION_COUNTS_H_
#define AJD_CORE_PARTITION_COUNTS_H_

#include <cstdint>

#include "engine/entropy_engine.h"
#include "jointree/mvd.h"
#include "relation/attr_set.h"

namespace ajd {

/// |Pi_attrs(R)| over the pin's rows: 1 for the empty set (the empty tuple)
/// when the prefix is non-empty, 0 over zero rows.
uint64_t DistinctCountAt(EntropyEngine* engine, const EpochPin& pin,
                         AttrSet attrs);

/// The active-domain sizes entering Theorem 5.1 for `mvd` = C ->> A | B:
/// d_a = |Pi_{A \ C}(R)|, d_b = |Pi_{B \ C}(R)|, d_c = |Pi_C(R)|, each 1 for
/// an empty set.
struct MvdDomainSizes {
  uint64_t d_a = 1;
  uint64_t d_b = 1;
  uint64_t d_c = 1;
};
MvdDomainSizes MvdDomainSizesAt(EntropyEngine* engine, const EpochPin& pin,
                                const Mvd& mvd);

/// |Pi_{side_a}(R) join Pi_{side_b}(R)|, the natural join on every shared
/// attribute (side_a cap side_b), over the pin's rows. Exact: the result
/// fits in uint64 because it is at most N^2 with N < 2^32.
uint64_t MvdJoinSizeAt(EntropyEngine* engine, const EpochPin& pin,
                       const Mvd& mvd);

}  // namespace ajd

#endif  // AJD_CORE_PARTITION_COUNTS_H_
