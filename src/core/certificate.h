// High-probability loss certificates: the user-facing assembly of the
// paper's Section 5 machinery. Given a relation (assumed drawn from the
// random relation model), an acyclic schema, and a confidence delta, the
// certificate states:
//
//   "with probability >= 1 - delta (over the draw of R),
//        ln(1 + rho(R, S)) <= sum_i [ I_i + eps_i ]"
//
// where the sum runs over the support MVDs (Prop 5.3 composed with
// Theorem 5.1, splitting delta as delta/(m-1) per MVD), together with an
// applicability verdict: every MVD must satisfy the qualifying condition
// (37) and the per-group Lemma C.1 condition for the statement to carry
// the paper's guarantee. When conditions fail, the certificate is still
// assembled but flagged advisory.
//
// NOTE: the composition step inherits the Proposition 5.1 caveat (the
// stated product decomposition is typical-case: MakeProp51Counterexample
// in core/worstcase.h breaks it, and bench/prop51_decomposition.cc
// measures how often). The certificate reports this explicitly.
#ifndef AJD_CORE_CERTIFICATE_H_
#define AJD_CORE_CERTIFICATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "jointree/join_tree.h"
#include "jointree/mvd.h"
#include "relation/relation.h"
#include "util/status.h"

namespace ajd {

class AnalysisSession;  // engine/analysis_session.h

/// Per-MVD ingredient of a certificate.
struct MvdCertificate {
  Mvd mvd;
  double cmi = 0.0;           ///< I(side_a; side_b | lhs), nats
  uint64_t d_a = 1, d_b = 1, d_c = 1;  ///< active-domain sizes
  double epsilon = 0.0;       ///< eps*(phi, N, delta/(m-1)), Eq. (38)
  bool qualifies_37 = false;  ///< N >= Eq. (37) threshold
  bool qualifies_c1 = false;  ///< min C-group >= Lemma C.1 threshold
  uint64_t min_group = 0;     ///< smallest C-group observed
};

/// The assembled certificate.
struct LossCertificate {
  double delta = 0.0;           ///< requested confidence parameter
  uint64_t n = 0;               ///< |R|
  std::vector<MvdCertificate> mvds;
  double bound_nats = 0.0;      ///< sum_i (cmi_i + eps_i)
  double bound_rho = 0.0;       ///< e^bound - 1: certified spurious fraction
  /// True iff every MVD passes (37) and Lemma C.1 — the paper's guarantee
  /// regime. Otherwise the bound is advisory (constants not yet binding).
  bool fully_qualified = false;

  /// Human-readable rendering.
  std::string ToString() const;
};

/// Assembles the certificate for (r, tree) at confidence `delta`.
/// Requirements: non-empty relation, tree covering its attributes,
/// delta in (0,1), and at least 2 bags.
Result<LossCertificate> CertifyLoss(const Relation& r, const JoinTree& tree,
                                    double delta = 0.05);

/// Session-sharing variant: certifying a mined tree right after
/// MineJoinTree(session, r, ...) answers the per-MVD CMIs (and the
/// groupwise Lemma C.1 scans) from the session's warmed cache.
Result<LossCertificate> CertifyLoss(AnalysisSession* session,
                                    const Relation& r, const JoinTree& tree,
                                    double delta = 0.05);

/// Planning helper: the smallest N for which Theorem 5.1's qualifying
/// condition (37) holds AND eps*(phi, N, delta) <= `target_eps`, for an
/// MVD with the given domain sizes. Returns OutOfRange if no N below
/// `n_cap` suffices. (eps* is monotone decreasing in N, so this is a
/// binary search.)
Result<uint64_t> PlanSampleSize(uint64_t d_a, uint64_t d_b, uint64_t d_c,
                                double delta, double target_eps,
                                uint64_t n_cap = uint64_t{1} << 50);

}  // namespace ajd

#endif  // AJD_CORE_CERTIFICATE_H_
