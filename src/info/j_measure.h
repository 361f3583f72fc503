// The J-measure of Lee (Eq. 7) and its companions:
//
//   J(T) = sum_v H(chi(v)) - sum_(u,v) H(chi(u) cap chi(v)) - H(chi(T)),
//
// computed over the empirical distribution of a relation; the Theorem 2.2
// sandwich (max/sum of the DFS-order conditional mutual informations); the
// exact chain-rule decomposition J = sum_i I(Omega_{1:i-1}; Omega_i | Delta_i);
// and the per-edge support CMIs. All in nats.
#ifndef AJD_INFO_J_MEASURE_H_
#define AJD_INFO_J_MEASURE_H_

#include <cstdint>
#include <vector>

#include "info/entropy.h"
#include "jointree/join_tree.h"
#include "relation/relation.h"

namespace ajd {

/// J(T) per Eq. (7), in nats. Zero iff R |= AJD(S) (Theorem 2.1).
double JMeasure(const Relation& r, const JoinTree& tree);

/// J(T) evaluated through a shared entropy cache (for batch workloads).
/// Equals JMeasureDetailed(calc, tree).j bit for bit.
double JMeasure(EntropyCalculator* calc, const JoinTree& tree);

/// The three components of Eq. (7).
struct JMeasureBreakdown {
  double sum_bag_entropies = 0.0;   ///< sum_v H(chi(v))
  double sum_sep_entropies = 0.0;   ///< sum_edges H(chi(u) cap chi(v))
  double total_entropy = 0.0;       ///< H(chi(T))
  double j = 0.0;                   ///< the J-measure
};

/// J(T) with its breakdown.
JMeasureBreakdown JMeasureDetailed(const Relation& r, const JoinTree& tree);

/// J(T) with its breakdown, through a shared entropy cache.
JMeasureBreakdown JMeasureDetailed(EntropyCalculator* calc,
                                   const JoinTree& tree);

/// Theorem 2.2 quantities for the DFS enumeration rooted at `root`:
/// per-step CMIs I(Omega_{1:i-1}; Omega_{i:m} | Delta_i), their max and sum.
/// The theorem asserts max <= J <= sum.
struct SandwichBounds {
  std::vector<double> per_step_cmi;
  double max_cmi = 0.0;
  double sum_cmi = 0.0;
};

/// Computes the Theorem 2.2 sandwich for `tree` rooted at `root`.
SandwichBounds DfsSandwich(const Relation& r, const JoinTree& tree,
                           uint32_t root = 0);

/// The sandwich through a shared entropy cache.
SandwichBounds DfsSandwich(EntropyCalculator* calc, const JoinTree& tree,
                           uint32_t root = 0);

/// The exact chain-rule identity: J(T) = sum_{i=2}^m
/// I(Omega_{1:i-1}; Omega_i | Delta_i) for any DFS enumeration. Returns the
/// sum; equals JMeasure up to floating point. (This is the telescoping
/// identity behind Theorem 2.2; see DESIGN.md.)
double JMeasureViaChainRule(const Relation& r, const JoinTree& tree,
                            uint32_t root = 0);

/// The chain-rule identity through a shared entropy cache.
double JMeasureViaChainRule(EntropyCalculator* calc, const JoinTree& tree,
                            uint32_t root = 0);

/// Per-edge support CMIs: for each support MVD chi(u) cap chi(v) ->>
/// chi(Tu) | chi(Tv), the value I(chi(Tu); chi(Tv) | chi(u) cap chi(v)).
/// Order matches tree.SupportMvds().
std::vector<double> SupportCmis(const Relation& r, const JoinTree& tree);

/// Support CMIs through a shared entropy cache.
std::vector<double> SupportCmis(EntropyCalculator* calc,
                                const JoinTree& tree);

}  // namespace ajd

#endif  // AJD_INFO_J_MEASURE_H_
