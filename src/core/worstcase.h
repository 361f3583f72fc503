// Constructed relation families with known, analytically exact loss:
//
//  * Example 4.1 — the diagonal family R = {(a_i, b_i)} with schema
//    S = {{A},{B}}: J = ln N = ln(1 + rho). Shows Lemma 4.1 is tight.
//  * Planted lossless instances — relations generated to satisfy a given
//    AJD exactly (rho = 0, J = 0), optionally perturbed with noise tuples
//    to create controlled approximate instances.
#ifndef AJD_CORE_WORSTCASE_H_
#define AJD_CORE_WORSTCASE_H_

#include <cstdint>

#include "jointree/join_tree.h"
#include "random/rng.h"
#include "relation/relation.h"
#include "util/status.h"

namespace ajd {

/// A relation together with a join tree over its attributes.
struct Instance {
  Relation relation;
  JoinTree tree;
};

/// Example 4.1: R = {(a_1,b_1), ..., (a_N,b_N)} over attributes A, B with
/// the acyclic schema {{A},{B}}. For this family J = ln N and
/// rho = N - 1, so J = ln(1 + rho) exactly. Requires n >= 1.
Result<Instance> MakeDiagonalInstance(uint64_t n);

/// A relation that satisfies AJD(S) exactly for the given join tree:
/// generated by sampling `group_count` distinct separator values and taking
/// a full cross product of `per_group` branch values within each group for
/// the 3-attribute MVD tree {AC},{BC} over domains [d_a] x [d_b] x [d_c].
/// The result has rho = 0 and J = 0.
Result<Instance> MakeLosslessMvdInstance(uint64_t d_a, uint64_t d_b,
                                         uint64_t d_c, uint64_t per_group_a,
                                         uint64_t per_group_b, Rng* rng);

/// Adds `extra` uniformly sampled tuples (distinct from existing rows) to a
/// copy of `r`, producing a controlled perturbation of a (near-)lossless
/// instance. Domains are those recorded in r's schema.
Result<Relation> AddNoiseTuples(const Relation& r, uint64_t extra, Rng* rng);

/// A 4-tuple counterexample to the LOWER side of Theorem 2.2 AS STATED
/// (max_i I(Omega_{1:i-1}; Omega_{i:m} | Delta_i) <= J). Relation over
/// (X, Y, Z, W) = {(x, 0, z, x) : x, z in {0,1}} with the join tree
/// bags {X,Y}, {Y,Z}, {X,W} and edges (0,1), (0,2). The relation is
/// LOSSLESS (J = 0, both support MVDs hold), yet for the DFS enumeration
/// (0, 1, 2): at i = 2, prefix = {X,Y}, suffix = {X,Y,Z,W}, Delta = {Y},
/// and I(prefix; suffix | Delta) = H(X|Y) = ln 2 > 0 = J. The failure mode
/// is an attribute (X) shared by prefix and suffix but absent from
/// Delta_i; the edge-support CMIs are immune (their sides meet exactly in
/// the separator by running intersection). Pinned by
/// Sandwich.DfsLowerSideCounterexample in tests/j_measure_test.cc.
Result<Instance> MakeThm22DfsCounterexample();

/// A 10-tuple counterexample to Proposition 5.1 AS STATED (pinned by
/// Prop51.CounterexampleViolatesStatedBound in tests/bounds_test.cc;
/// bench/prop51_decomposition.cc measures the slack on planted instances).
/// Relation over (A, B, D):
///   { (a, 0, d) : a, d in [3] }  u  { (3, 1, 3) },
/// with the path join tree {A} - {B} - {D} (empty separators).
/// Measured: 1 + rho(R, S) = 32/10 = 3.2, while the support MVDs give
/// (1 + rho_1)(1 + rho_2) = (16/10)^2 = 2.56 < 3.2, violating Eq. (29).
/// The violation comes from the skewed B-group: the heavy group (b = 0)
/// has full A x D product structure while the light group (b = 1)
/// deflates both per-MVD join sizes.
Result<Instance> MakeProp51Counterexample();

}  // namespace ajd

#endif  // AJD_CORE_WORSTCASE_H_
