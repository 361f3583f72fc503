// The loss of a schema with respect to a relation instance (Eq. 1):
//
//   rho(R, S) = (|join_i R[Omega_i]| - |R|) / |R|,
//
// and the per-MVD loss rho(R, phi) of Eq. (28). Join sizes are counted,
// never materialized, from the stripped partitions an EntropyEngine holds.
// The schema's join size is Yannakakis count propagation over the bags'
// distinct tuples: a bag partition's groups (each block's first row, plus
// each stripped singleton) are R[Omega_i], and a child's message to its
// parent is keyed by the separator partition's group of each
// representative row. The tables are sized by sum_i |R[Omega_i]|, plus one
// N-sized scratch array reused across bags and separators; nothing is
// hashed.
#ifndef AJD_CORE_LOSS_H_
#define AJD_CORE_LOSS_H_

#include <cstdint>
#include <optional>

#include "jointree/join_tree.h"
#include "jointree/mvd.h"
#include "relation/relation.h"
#include "util/status.h"

namespace ajd {

class AnalysisSession;  // engine/analysis_session.h
class EntropyEngine;    // engine/entropy_engine.h
struct EpochPin;        // engine/entropy_engine.h

/// The loss of an acyclic schema w.r.t. a relation.
struct LossReport {
  uint64_t num_tuples = 0;            ///< N = |R|
  double join_size = 0.0;             ///< |R'| (exact below 2^53)
  std::optional<uint64_t> join_size_exact;  ///< |R'| when it fits in uint64
  double rho = 0.0;                   ///< rho(R, S)
  double log1p_rho = 0.0;             ///< ln(1 + rho), nats
};

/// The preconditions of every ComputeLoss form over a prefix of `rows`
/// rows of `r`: rows > 0 (FailedPrecondition otherwise) and chi(T) within
/// r's attributes (InvalidArgument otherwise).
Status ValidateLossInputs(const Relation& r, uint64_t rows,
                          const JoinTree& tree);

/// Computes rho(R, S) for the schema of `tree` by count propagation
/// through a temporary AnalysisSession. The tree may cover a strict
/// subset of r's attributes (the join is then over chi(T)), and r may
/// repeat rows (the projections are sets either way, so rho can go
/// negative). Requires a non-empty relation whose attributes include
/// chi(T).
Result<LossReport> ComputeLoss(const Relation& r, const JoinTree& tree);

/// Session-sharing variant: prewarms the bag and separator partitions in
/// the session's engine for `r` (after mining, mostly cache hits) and
/// counts at EntropyEngine::SyncedPin: over every row appended before the
/// call.
Result<LossReport> ComputeLoss(AnalysisSession* session, const Relation& r,
                               const JoinTree& tree);

/// Pinned form, for callers that read several quantities at one pin
/// (AnalyzeAjd, StreamingLossMonitor): the loss over exactly the first
/// pin.rows rows of the engine's relation. Reads the partitions of every
/// bag and of every DFS separator (root 0) at the pin, computing the ones
/// not cached. `join_size_exact` is set iff the join size fits in uint64,
/// and `join_size` is exact below 2^53.
Result<LossReport> ComputeLossAt(EntropyEngine* engine, const EpochPin& pin,
                                 const JoinTree& tree);

/// The per-MVD loss rho(R, phi) of Eq. (28):
///   (|Pi_{side_a}(R) join Pi_{side_b}(R)| - |R|) / |R|.
/// The join is the natural join of the two projections (on all shared
/// attributes), never materialized: its size is read off the stripped
/// partitions of side_a, side_b and their key (core/partition_counts.h),
/// here through a temporary AnalysisSession.
Result<LossReport> ComputeMvdLoss(const Relation& r, const Mvd& mvd);

/// Session-sharing variant: the partitions come from the session's engine
/// for `r` (after mining, usually cache hits), read at
/// EntropyEngine::SyncedPin.
Result<LossReport> ComputeMvdLoss(AnalysisSession* session, const Relation& r,
                                  const Mvd& mvd);

/// Pinned form of the session variant, for callers that read several
/// quantities at one pin (AnalyzeAjd): the loss over exactly the first
/// pin.rows rows of the engine's relation.
Result<LossReport> ComputeMvdLossAt(EntropyEngine* engine, const EpochPin& pin,
                                    const Mvd& mvd);

}  // namespace ajd

#endif  // AJD_CORE_LOSS_H_
