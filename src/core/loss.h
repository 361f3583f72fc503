// The loss of a schema with respect to a relation instance (Eq. 1):
//
//   rho(R, S) = (|join_i R[Omega_i]| - |R|) / |R|,
//
// and the per-MVD loss rho(R, phi) of Eq. (28). The join size is evaluated
// by count propagation (never materialized).
#ifndef AJD_CORE_LOSS_H_
#define AJD_CORE_LOSS_H_

#include <cstdint>
#include <optional>

#include "jointree/join_tree.h"
#include "jointree/mvd.h"
#include "relation/acyclic_join.h"
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

/// Computes rho(R, S) for the schema of `tree` via Yannakakis counting.
/// Requires a non-empty relation whose attributes include chi(T).
Result<LossReport> ComputeLoss(const Relation& r, const JoinTree& tree);

/// The per-MVD loss rho(R, phi) of Eq. (28):
///   (|Pi_{side_a}(R) join Pi_{side_b}(R)| - |R|) / |R|.
/// The join is the natural join of the two projections (on all shared
/// attributes). Computed by hash group counting; never materialized. The
/// reference the partition-backed overloads below are tested against.
Result<LossReport> ComputeMvdLoss(const Relation& r, const Mvd& mvd);

/// Session-sharing variant: the join size is read off the stripped
/// partitions of side_a, side_b and their key in the session's engine for
/// `r` (core/partition_counts.h) — after mining, usually cache hits — over
/// the engine's current pinned prefix. Bit-equal to the hash form.
Result<LossReport> ComputeMvdLoss(AnalysisSession* session, const Relation& r,
                                  const Mvd& mvd);

/// Pinned form of the session variant, for callers that read several
/// quantities at one pin (AnalyzeAjd): the loss over exactly the first
/// pin.rows rows of the engine's relation.
Result<LossReport> ComputeMvdLossAt(EntropyEngine* engine, const EpochPin& pin,
                                    const Mvd& mvd);

}  // namespace ajd

#endif  // AJD_CORE_LOSS_H_
