#include <gtest/gtest.h>

#include <cmath>

#include "core/bounds.h"
#include "core/certificate.h"
#include "core/loss.h"
#include "core/worstcase.h"
#include "random/random_relation.h"
#include "random/rng.h"
#include "relation/ops.h"
#include "test_util.h"

namespace ajd {
namespace {

TEST(Certificate, AssemblesPerMvdIngredients) {
  Rng rng(430);
  Instance inst = MakeLosslessMvdInstance(8, 8, 4, 3, 3, &rng).value();
  LossCertificate cert = CertifyLoss(inst.relation, inst.tree).value();
  ASSERT_EQ(cert.mvds.size(), 1u);
  // The active-domain sizes come off the engine's partitions and must be
  // the exact distinct counts.
  const Mvd& mvd = cert.mvds[0].mvd;
  EXPECT_EQ(cert.mvds[0].d_a,
            CountDistinct(inst.relation, mvd.side_a.Minus(mvd.lhs)));
  EXPECT_EQ(cert.mvds[0].d_b,
            CountDistinct(inst.relation, mvd.side_b.Minus(mvd.lhs)));
  EXPECT_EQ(cert.mvds[0].d_c, CountDistinct(inst.relation, mvd.lhs));
  EXPECT_NEAR(cert.mvds[0].cmi, 0.0, 1e-9);
  EXPECT_GT(cert.mvds[0].epsilon, 0.0);
  EXPECT_NEAR(cert.bound_nats, cert.mvds[0].cmi + cert.mvds[0].epsilon,
              1e-12);
  // eps* is thousands of nats at this scale, so the rho form may overflow
  // to infinity; the two renderings must at least agree.
  if (std::isinf(std::expm1(cert.bound_nats))) {
    EXPECT_TRUE(std::isinf(cert.bound_rho));
  } else {
    EXPECT_NEAR(cert.bound_rho, std::expm1(cert.bound_nats),
                1e-6 * std::fabs(cert.bound_rho));
  }
}

TEST(Certificate, BoundDominatesActualLossOnRandomModel) {
  // On random-model draws the certified bound must dominate the observed
  // loss (the constants make it loose, never wrong at these scales).
  Rng rng(431);
  RandomRelationSpec spec;
  spec.domain_sizes = {12, 12, 4};
  spec.num_tuples = 288;
  JoinTree tree =
      JoinTree::Make({AttrSet{0, 2}, AttrSet{1, 2}}, {{0, 1}}).value();
  for (int trial = 0; trial < 15; ++trial) {
    Relation r = SampleRandomRelation(spec, &rng).value();
    LossCertificate cert = CertifyLoss(r, tree).value();
    LossReport loss = ComputeLoss(r, tree).value();
    EXPECT_LE(loss.log1p_rho, cert.bound_nats + 1e-9);
  }
}

TEST(Certificate, FlagsUnqualifiedScales) {
  // Laptop-scale instances never satisfy (37); the certificate must say
  // ADVISORY rather than claim the guarantee.
  Rng rng(432);
  Instance inst = MakeLosslessMvdInstance(10, 10, 5, 3, 3, &rng).value();
  LossCertificate cert = CertifyLoss(inst.relation, inst.tree).value();
  EXPECT_FALSE(cert.fully_qualified);
  EXPECT_NE(cert.ToString().find("ADVISORY"), std::string::npos);
}

TEST(Certificate, SplitsDeltaAcrossMvds) {
  // More MVDs => smaller per-MVD delta => larger per-MVD epsilon.
  Rng rng(433);
  Relation r = testing_util::RandomTestRelation(&rng, 4, 6, 200);
  JoinTree two =
      JoinTree::Make({AttrSet{0, 1}, AttrSet{1, 2, 3}}, {{0, 1}}).value();
  JoinTree three = JoinTree::Path(
                       {AttrSet{0, 1}, AttrSet{1, 2}, AttrSet{2, 3}})
                       .value();
  LossCertificate c2 = CertifyLoss(r, two).value();
  LossCertificate c3 = CertifyLoss(r, three).value();
  EXPECT_EQ(c2.mvds.size(), 1u);
  EXPECT_EQ(c3.mvds.size(), 2u);
}

TEST(Certificate, ValidatesInputs) {
  Instance inst = MakeDiagonalInstance(4).value();
  EXPECT_FALSE(CertifyLoss(inst.relation, inst.tree, 0.0).ok());
  JoinTree one = JoinTree::Make({AttrSet{0, 1}}, {}).value();
  EXPECT_FALSE(CertifyLoss(inst.relation, one).ok());
}

TEST(PlanSampleSize, MonotoneAndSufficient) {
  const uint64_t d = 64;
  Result<uint64_t> n = PlanSampleSize(d, d, 4, 0.05, 0.5);
  ASSERT_TRUE(n.ok());
  // The plan is sufficient...
  EXPECT_LE(EpsilonStarMvd(d, d, 4, n.value(), 0.05), 0.5);
  EXPECT_TRUE(Theorem51Applies(d, d, 4, n.value(), 0.05));
  // ...and minimal.
  EXPECT_FALSE(Theorem51Applies(d, d, 4, n.value() - 1, 0.05) &&
               EpsilonStarMvd(d, d, 4, n.value() - 1, 0.05) <= 0.5);
  // Tighter targets need more samples.
  Result<uint64_t> tighter = PlanSampleSize(d, d, 4, 0.05, 0.1);
  ASSERT_TRUE(tighter.ok());
  EXPECT_GT(tighter.value(), n.value());
}

TEST(PlanSampleSize, RespectsCap) {
  EXPECT_EQ(PlanSampleSize(1 << 20, 1 << 20, 1 << 10, 0.05, 1e-6,
                           /*n_cap=*/1 << 20)
                .status()
                .code(),
            StatusCode::kOutOfRange);
}

TEST(PlanSampleSize, ValidatesInputs) {
  EXPECT_FALSE(PlanSampleSize(8, 8, 2, 0.0, 0.1).ok());
  EXPECT_FALSE(PlanSampleSize(8, 8, 2, 0.05, -1.0).ok());
}

}  // namespace
}  // namespace ajd
