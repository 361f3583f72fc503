// AnalyzeAjd: the one-call entry point of the library. Given a relation and
// an acyclic schema (join tree), computes every quantity the paper relates:
// the loss rho, the J-measure (three ways), the KL-divergence
// characterization (Theorem 3.2), the Theorem 2.2 sandwich, the per-MVD
// support statistics, and the Section 4/5 bounds with their applicability.
#ifndef AJD_CORE_ANALYSIS_H_
#define AJD_CORE_ANALYSIS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/loss.h"
#include "jointree/join_tree.h"
#include "jointree/mvd.h"
#include "relation/relation.h"
#include "util/status.h"

namespace ajd {

class AnalysisSession;  // engine/analysis_session.h

/// Statistics for one MVD in the support of the schema.
struct MvdStat {
  Mvd mvd;
  double cmi = 0.0;          ///< I(side_a; side_b | lhs), nats.
  double rho = 0.0;          ///< rho(R, phi), Eq. (28).
  double log1p_rho = 0.0;    ///< ln(1 + rho(R, phi)).
  /// Active-domain sizes entering Theorem 5.1: d_A = |Pi_{A \ C}(R)|,
  /// d_B = |Pi_{B \ C}(R)|, d_C = |Pi_C(R)| (1 when C is empty).
  uint64_t d_a = 0, d_b = 0, d_c = 0;
  double epsilon_star = 0.0;  ///< eps*(phi, N, delta), Eq. (38).
  bool thm51_applies = false;  ///< Qualifying condition (37).
};

/// Everything the library can say about (R, S).
struct AjdAnalysis {
  uint64_t n = 0;                 ///< |R|
  /// rho(R, S), counted from the engine's bag and separator partitions
  /// (ComputeLossAt, core/loss.h); loss.num_tuples == n.
  LossReport loss;
  double j = 0.0;                 ///< J-measure, Eq. (7).
  double kl = 0.0;                ///< D(P || P^T); == j by Theorem 3.2.
  double chain_rule_j = 0.0;      ///< sum_i I(prefix; bag | delta); == j.
  /// Theorem 2.2 lower side, realized through the edge-support CMIs
  /// max_i I(chi(Tu); chi(Tv) | Delta): provably <= J (coarsening).
  double max_support_cmi = 0.0;
  /// max_i I(Omega_{1:i-1}; Omega_{i:m} | Delta_i) for the DFS rooted at 0.
  /// CAUTION: the paper's Theorem 2.2 states this is <= J, but for DFS
  /// enumerations whose prefix and suffix share attributes outside Delta_i
  /// it can EXCEED J (MakeThm22DfsCounterexample in core/worstcase.h,
  /// pinned by Sandwich.DfsLowerSideCounterexample in
  /// tests/j_measure_test.cc). Exposed for diagnostics.
  double max_dfs_cmi = 0.0;
  double sum_dfs_cmi = 0.0;       ///< Theorem 2.2 upper side (always valid).
  double rho_lower_bound = 0.0;   ///< Lemma 4.1: e^J - 1 <= rho.
  /// Prop 5.1's claimed upper bound sum_i ln(1+rho_i). CAUTION: the paper's
  /// proposition admits counterexamples (MakeProp51Counterexample, pinned
  /// by Prop51.CounterexampleViolatesStatedBound in tests/bounds_test.cc;
  /// bench/prop51_decomposition.cc measures the slack); treat as a
  /// typical-case estimate, not a guarantee.
  double prop51_bound = 0.0;
  std::vector<MvdStat> support;   ///< Per support MVD (edge MVDs).
  double delta = 0.0;             ///< Confidence parameter used below.
  /// Prop 5.3 (Eq. 33): sum_i (cmi_i + eps_i); meaningful when every
  /// support MVD satisfies (37) — see prop53_valid.
  double prop53_upper = 0.0;
  bool prop53_valid = false;
  /// True iff R |= AJD(S) (rho == 0, equivalently J == 0 by Thm 2.1).
  bool lossless = false;

  /// Multi-line human-readable report.
  std::string ToString() const;
};

/// Runs the full analysis. `delta` is the confidence parameter for the
/// Section 5 bounds. Every term comes from the session engine's stripped
/// partitions, all read at ONE pin taken on entry
/// (EntropyEngine::SyncedPin, so it covers every row appended before the
/// call even while another thread runs a catch-up): entropies from its
/// cache; the join size behind `loss` by count propagation over the bags'
/// distinct tuples (core/loss.h); and distinct counts, per-MVD join sizes
/// and the pointwise D(P || P^T) from O(N) scans over the partitions of
/// the bags, separators and MVD sides (core/partition_counts.h). Nothing
/// is materialized or hashed. Appends may land while it runs: the result
/// is the cold analysis of the first `n` rows. Requires distinct rows over
/// chi(T) (InvalidArgument otherwise).
Result<AjdAnalysis> AnalyzeAjd(const Relation& r, const JoinTree& tree,
                               double delta = 0.05);

/// Session-sharing variant: every entropy term (bags, separators, DFS
/// sandwich, support CMIs) and every partition scanned is answered by the
/// session's engine for `r`, so analysis after mining — or repeated
/// analyses of candidate trees over the same relation — reuses all cached
/// work.
Result<AjdAnalysis> AnalyzeAjd(AnalysisSession* session, const Relation& r,
                               const JoinTree& tree, double delta = 0.05);

}  // namespace ajd

#endif  // AJD_CORE_ANALYSIS_H_
