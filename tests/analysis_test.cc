#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "acyclic_join_oracle.h"
#include "core/analysis.h"
#include "core/loss.h"
#include "core/worstcase.h"
#include "engine/analysis_session.h"
#include "info/factorized.h"
#include "random/rng.h"
#include "relation/ops.h"
#include "test_util.h"

namespace ajd {
namespace {

// AnalyzeAjd reads its distinct counts, MVD join sizes and KL off the
// session engine's partitions. Every integer must equal the hash passes
// (CountDistinct, tests/acyclic_join_oracle.h) exactly, and the pointwise KL must match the FactorizedDistribution
// oracle.
void ExpectMatchesHashPasses(AnalysisSession* session, const Relation& r,
                             const JoinTree& t) {
  SCOPED_TRACE(t.ToString());
  AjdAnalysis a = AnalyzeAjd(session, r, t).value();
  ASSERT_EQ(a.n, r.NumRows());
  ASSERT_EQ(a.support.size(), t.NumNodes() - 1);
  for (const MvdStat& m : a.support) {
    SCOPED_TRACE(m.mvd.ToString());
    const AttrSet a_branch = m.mvd.side_a.Minus(m.mvd.lhs);
    const AttrSet b_branch = m.mvd.side_b.Minus(m.mvd.lhs);
    ASSERT_EQ(m.d_a, a_branch.Empty() ? 1 : CountDistinct(r, a_branch));
    ASSERT_EQ(m.d_b, b_branch.Empty() ? 1 : CountDistinct(r, b_branch));
    ASSERT_EQ(m.d_c, m.mvd.lhs.Empty() ? 1 : CountDistinct(r, m.mvd.lhs));
    const uint64_t want = join_oracle::MvdJoinSize(r, m.mvd);
    const LossReport got = ComputeMvdLoss(session, r, m.mvd).value();
    ASSERT_EQ(got.join_size_exact, want);
    ASSERT_EQ(got.num_tuples, r.NumRows());
    const double n = static_cast<double>(r.NumRows());
    const double want_rho = (static_cast<double>(want) - n) / n;
    ASSERT_EQ(m.rho, want_rho < 0.0 && want_rho > -1e-9 ? 0.0 : want_rho);
    ASSERT_EQ(m.log1p_rho, std::log1p(m.rho));
  }
  FactorizedDistribution pt(r, t);
  EXPECT_NEAR(a.kl, pt.KlFromEmpirical(), 1e-12);
  EXPECT_NEAR(a.kl, a.j, 1e-9);
}

TEST(AnalyzeAjd, LosslessInstanceFlagsLossless) {
  Rng rng(140);
  Instance inst = MakeLosslessMvdInstance(8, 8, 4, 3, 3, &rng).value();
  AjdAnalysis a = AnalyzeAjd(inst.relation, inst.tree).value();
  EXPECT_TRUE(a.lossless);
  EXPECT_NEAR(a.j, 0.0, 1e-10);
  EXPECT_NEAR(a.kl, 0.0, 1e-10);
  EXPECT_EQ(a.loss.rho, 0.0);
  for (const MvdStat& m : a.support) {
    EXPECT_NEAR(m.cmi, 0.0, 1e-10);
    EXPECT_EQ(m.rho, 0.0);
  }
}

TEST(AnalyzeAjd, DiagonalInstanceReportsTightBound) {
  Instance inst = MakeDiagonalInstance(20).value();
  AjdAnalysis a = AnalyzeAjd(inst.relation, inst.tree).value();
  EXPECT_FALSE(a.lossless);
  EXPECT_NEAR(a.j, std::log(20.0), 1e-9);
  EXPECT_NEAR(a.rho_lower_bound, 19.0, 1e-6);
  EXPECT_NEAR(a.loss.rho, 19.0, 1e-9);
}

TEST(AnalyzeAjd, InternalConsistencyOnRandomInputs) {
  Rng rng(141);
  for (int trial = 0; trial < 20; ++trial) {
    Relation r = testing_util::RandomTestRelation(&rng, 4, 3, 40);
    JoinTree t = testing_util::RandomJoinTree(&rng, 4);
    AjdAnalysis a = AnalyzeAjd(r, t).value();
    // Theorem 3.2 and the chain rule agree with J.
    EXPECT_NEAR(a.j, a.kl, 1e-8);
    EXPECT_NEAR(a.j, a.chain_rule_j, 1e-8);
    // Theorem 2.2 upper side.
    EXPECT_LE(a.j, a.sum_dfs_cmi + 1e-8);
    // Lemma 4.1.
    EXPECT_LE(a.j, a.loss.log1p_rho + 1e-8);
    EXPECT_LE(a.rho_lower_bound, a.loss.rho + 1e-6);
    // Proposition 5.1 — typical case; the stated bound is not universal
    // (see Prop51.CounterexampleViolatesStatedBound) but holds for these
    // seeded random inputs.
    EXPECT_LE(a.loss.log1p_rho, a.prop51_bound + 1e-8);
    // Support size.
    EXPECT_EQ(a.support.size(), t.NumNodes() - 1);
    // Active-domain sizes are positive.
    for (const MvdStat& m : a.support) {
      EXPECT_GE(m.d_a, 1u);
      EXPECT_GE(m.d_b, 1u);
      EXPECT_GE(m.d_c, 1u);
      EXPECT_GT(m.epsilon_star, 0.0);
    }
  }
}

TEST(AnalyzeAjd, RejectsBadDelta) {
  Instance inst = MakeDiagonalInstance(4).value();
  EXPECT_FALSE(AnalyzeAjd(inst.relation, inst.tree, 0.0).ok());
  EXPECT_FALSE(AnalyzeAjd(inst.relation, inst.tree, 1.0).ok());
}

TEST(AnalyzeAjd, RejectsRepeatedRowsInsteadOfAborting) {
  // Over a multiset the Yannakakis join count (2) falls below |R| (4), so
  // every loss would come out negative; the analysis must say why instead.
  Schema s = Schema::MakeSynthetic({2, 2}).value();
  RelationBuilder b(s);
  b.AddRow({0, 0});
  b.AddRow({0, 0});
  b.AddRow({0, 0});
  b.AddRow({0, 1});
  Relation r = std::move(b).Build(/*dedupe=*/false);
  JoinTree t = JoinTree::Path({AttrSet{0}, AttrSet{1}}).value();
  Result<AjdAnalysis> a = AnalyzeAjd(r, t);
  ASSERT_FALSE(a.ok());
  const Status st = a.status();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  const std::string& msg = st.message();
  EXPECT_NE(msg.find("4 rows"), std::string::npos) << msg;
  EXPECT_NE(msg.find("only 2 distinct"), std::string::npos) << msg;
  EXPECT_NE(msg.find("dedupe = true"), std::string::npos) << msg;
}

TEST(AnalyzeAjd, ToStringMentionsKeyQuantities) {
  Instance inst = MakeDiagonalInstance(6).value();
  AjdAnalysis a = AnalyzeAjd(inst.relation, inst.tree).value();
  std::string s = a.ToString();
  EXPECT_NE(s.find("J-measure"), std::string::npos);
  EXPECT_NE(s.find("Lemma 4.1"), std::string::npos);
  EXPECT_NE(s.find("Prop 5.1"), std::string::npos);
  EXPECT_NE(s.find("lossy"), std::string::npos);
}

TEST(AnalyzeAjd, SingleBagTreeIsAlwaysLossless) {
  Rng rng(142);
  Relation r = testing_util::RandomTestRelation(&rng, 3, 3, 30);
  JoinTree t = JoinTree::Make({r.schema().AllAttrs()}, {}).value();
  AjdAnalysis a = AnalyzeAjd(r, t).value();
  EXPECT_TRUE(a.lossless);
  EXPECT_NEAR(a.j, 0.0, 1e-10);
  EXPECT_TRUE(a.support.empty());
}

TEST(AnalyzeAjd, PartitionCountsMatchHashPassesOnRandomTrees) {
  Rng rng(143);
  for (int trial = 0; trial < 30; ++trial) {
    const uint32_t num_attrs = 3 + static_cast<uint32_t>(rng.UniformU64(4));
    const uint32_t domain = 2 + static_cast<uint32_t>(rng.UniformU64(3));
    const uint32_t rows = 10 + static_cast<uint32_t>(rng.UniformU64(190));
    Relation r = testing_util::RandomTestRelation(&rng, num_attrs, domain,
                                                  rows);
    // Several trees through one session: later analyses refine from the
    // partitions earlier ones cached.
    AnalysisSession session;
    for (int k = 0; k < 3; ++k) {
      ExpectMatchesHashPasses(&session, r,
                              testing_util::RandomJoinTree(&rng, num_attrs));
    }
    // Arbitrary well-formed MVDs too, including sides that share attributes
    // outside the determinant (the join key is then larger than lhs) and
    // an empty determinant.
    const uint64_t all = (uint64_t{1} << num_attrs) - 1;
    for (int k = 0; k < 6; ++k) {
      Mvd mvd;
      mvd.lhs = AttrSet::FromMask(rng.UniformU64(all + 1) &
                                  rng.UniformU64(all + 1));
      mvd.side_a = mvd.lhs.Union(AttrSet::FromMask(rng.UniformU64(all + 1)));
      mvd.side_b = mvd.lhs.Union(AttrSet::FromMask(rng.UniformU64(all + 1)));
      if (mvd.side_a.Empty() || mvd.side_b.Empty()) continue;
      SCOPED_TRACE(mvd.ToString());
      ASSERT_EQ(ComputeMvdLoss(&session, r, mvd).value().join_size_exact,
                join_oracle::MvdJoinSize(r, mvd));
    }
  }
}

TEST(AnalyzeAjd, PartitionCountsCoverEmptySeparatorsAndSingleBag) {
  Rng rng(144);
  Relation r = testing_util::RandomTestRelation(&rng, 5, 3, 150);
  AnalysisSession session;
  // The first edge has an empty separator, so its MVD has an empty lhs and
  // its join is a cross product.
  ExpectMatchesHashPasses(
      &session, r,
      JoinTree::Path({AttrSet{0, 1}, AttrSet{2, 3}, AttrSet{3, 4}}).value());
  // A star over an empty determinant: every separator is empty.
  ExpectMatchesHashPasses(
      &session, r,
      JoinTree::FromMvdPartition(AttrSet(), {AttrSet{0, 1}, AttrSet{2},
                                             AttrSet{3, 4}})
          .value());
  // One bag: no support MVDs, and P^T = P.
  ExpectMatchesHashPasses(&session, r,
                          JoinTree::Make({AttrSet{0, 1, 2, 3, 4}}, {}).value());
}

TEST(AnalyzeAjd, PartitionCountsExactUnderOneByteArbiterBudget) {
  // With a 1-byte budget every partition is evicted as soon as it is
  // charged, so every PartitionAt computes and must keep what it built.
  Rng rng(145);
  SessionOptions options;
  options.engine.cache_budget_bytes = 1;
  for (int trial = 0; trial < 8; ++trial) {
    Relation r = testing_util::RandomTestRelation(&rng, 5, 3, 120);
    AnalysisSession session(options);
    ExpectMatchesHashPasses(&session, r,
                            testing_util::RandomJoinTree(&rng, 5));
    EXPECT_GT(session.TotalStats().evictions, 0u);
  }
}

TEST(AnalyzeAjd, PartitionCountsFollowAppendedRows) {
  // The second analysis runs after AppendBatch, so it reads partitions the
  // engine's catch-up extended (or recomputed) to the grown relation.
  Rng rng(146);
  for (int trial = 0; trial < 6; ++trial) {
    Relation r = testing_util::RandomTestRelation(&rng, 5, 3, 80);
    const JoinTree t = testing_util::RandomJoinTree(&rng, 5);
    AnalysisSession session;
    ExpectMatchesHashPasses(&session, r, t);
    std::vector<std::vector<uint32_t>> batch(60, std::vector<uint32_t>(5));
    for (auto& row : batch) {
      for (uint32_t& v : row) v = static_cast<uint32_t>(rng.UniformU64(4));
    }
    ASSERT_TRUE(r.AppendBatch(batch, /*dedupe=*/true).ok());
    ExpectMatchesHashPasses(&session, r, t);
    EXPECT_GT(session.TotalStats().epoch_catchups, 0u);
  }
}

void ExpectSameAnalysis(const AjdAnalysis& got, const AjdAnalysis& want) {
  EXPECT_EQ(got.n, want.n);
  EXPECT_EQ(got.loss.num_tuples, want.loss.num_tuples);
  EXPECT_EQ(got.loss.join_size, want.loss.join_size);
  EXPECT_EQ(got.loss.join_size_exact, want.loss.join_size_exact);
  EXPECT_EQ(got.loss.rho, want.loss.rho);
  EXPECT_EQ(got.loss.log1p_rho, want.loss.log1p_rho);
  EXPECT_EQ(got.j, want.j);
  EXPECT_EQ(got.kl, want.kl);
  EXPECT_EQ(got.chain_rule_j, want.chain_rule_j);
  EXPECT_EQ(got.max_support_cmi, want.max_support_cmi);
  EXPECT_EQ(got.max_dfs_cmi, want.max_dfs_cmi);
  EXPECT_EQ(got.sum_dfs_cmi, want.sum_dfs_cmi);
  EXPECT_EQ(got.rho_lower_bound, want.rho_lower_bound);
  EXPECT_EQ(got.prop51_bound, want.prop51_bound);
  EXPECT_EQ(got.prop53_upper, want.prop53_upper);
  EXPECT_EQ(got.prop53_valid, want.prop53_valid);
  EXPECT_EQ(got.lossless, want.lossless);
  ASSERT_EQ(got.support.size(), want.support.size());
  for (size_t i = 0; i < got.support.size(); ++i) {
    const MvdStat& g = got.support[i];
    const MvdStat& w = want.support[i];
    EXPECT_EQ(g.cmi, w.cmi) << i;
    EXPECT_EQ(g.rho, w.rho) << i;
    EXPECT_EQ(g.log1p_rho, w.log1p_rho) << i;
    EXPECT_EQ(g.d_a, w.d_a) << i;
    EXPECT_EQ(g.d_b, w.d_b) << i;
    EXPECT_EQ(g.d_c, w.d_c) << i;
    EXPECT_EQ(g.epsilon_star, w.epsilon_star) << i;
    EXPECT_EQ(g.thm51_applies, w.thm51_applies) << i;
  }
}

TEST(AnalyzeAjd, ReadsEveryTermAtOnePinWhileBatchesLand) {
  // An appender lands batches while analyses of the growing relation run:
  // each result is the cold analysis of exactly the prefix it pinned, and
  // its n is the row count its loss was counted over. The TSan leg runs
  // this.
  Rng rng(148);
  const uint32_t num_attrs = 5;
  const uint32_t domain = 8;
  std::vector<std::vector<uint32_t>> all;
  std::set<std::vector<uint32_t>> seen;
  while (all.size() < 3000) {
    std::vector<uint32_t> row(num_attrs);
    for (uint32_t& v : row) v = static_cast<uint32_t>(rng.UniformU64(domain));
    if (seen.insert(row).second) all.push_back(std::move(row));
  }
  auto prefix_relation = [&](size_t rows) {
    std::vector<uint64_t> dims(num_attrs, domain);
    RelationBuilder b(Schema::MakeSynthetic(dims).value());
    for (size_t i = 0; i < rows; ++i) b.AddRow(all[i]);
    return std::move(b).Build(/*dedupe=*/true);
  };
  const size_t initial = 1500;
  const size_t batch_rows = 50;
  Relation r = prefix_relation(initial);
  const JoinTree tree =
      JoinTree::Path({AttrSet{0, 1, 2}, AttrSet{2, 3}, AttrSet{3, 4}})
          .value();
  AnalysisSession session;

  std::atomic<bool> go{false};
  std::atomic<bool> done{false};
  std::thread appender([&] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    for (size_t at = initial; at < all.size(); at += batch_rows) {
      const std::vector<std::vector<uint32_t>> batch(
          all.begin() + static_cast<std::ptrdiff_t>(at),
          all.begin() + static_cast<std::ptrdiff_t>(at + batch_rows));
      ASSERT_TRUE(r.AppendBatch(batch, /*dedupe=*/true).ok());
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    done.store(true, std::memory_order_release);
  });
  std::vector<AjdAnalysis> results;
  go.store(true, std::memory_order_release);
  do {
    results.push_back(AnalyzeAjd(&session, r, tree).value());
  } while (!done.load(std::memory_order_acquire));
  appender.join();
  results.push_back(AnalyzeAjd(&session, r, tree).value());
  EXPECT_EQ(results.back().n, all.size());

  std::map<uint64_t, AjdAnalysis> cold;
  for (const AjdAnalysis& got : results) {
    SCOPED_TRACE(got.n);
    EXPECT_EQ(got.n, got.loss.num_tuples);
    auto it = cold.find(got.n);
    if (it == cold.end()) {
      it = cold.emplace(got.n, AnalyzeAjd(prefix_relation(got.n), tree)
                                   .value())
               .first;
    }
    ExpectSameAnalysis(got, it->second);
  }
}

}  // namespace
}  // namespace ajd
