#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/analysis.h"
#include "core/worstcase.h"
#include "discovery/miner.h"
#include "info/entropy.h"
#include "info/j_measure.h"
#include "random/rng.h"
#include "test_util.h"

namespace ajd {
namespace {

TEST(Miner, RecoversPlantedMvd) {
  // Data satisfying C ->> A | B exactly: the miner must find a 2-bag tree
  // with J ~ 0.
  Rng rng(150);
  Instance inst = MakeLosslessMvdInstance(10, 10, 6, 3, 3, &rng).value();
  MinerOptions options;
  options.max_bag_size = 2;
  MinerReport report = MineJoinTree(inst.relation, options).value();
  EXPECT_NEAR(report.j, 0.0, 1e-9);
  EXPECT_GE(report.tree.NumNodes(), 2u);
  // Some edge of the tree must separate on exactly {C} (= position 2).
  bool found_c = false;
  for (auto [u, v] : report.tree.Edges()) {
    if (report.tree.bag(u).Intersect(report.tree.bag(v)) == AttrSet{2}) {
      found_c = true;
    }
  }
  EXPECT_TRUE(found_c) << report.tree.ToString();
}

TEST(Miner, LosslessMinedSchemaHasZeroLoss) {
  Rng rng(151);
  Instance inst = MakeLosslessMvdInstance(8, 8, 5, 2, 4, &rng).value();
  MinerReport report = MineJoinTree(inst.relation).value();
  AjdAnalysis a = AnalyzeAjd(inst.relation, report.tree).value();
  EXPECT_TRUE(a.lossless);
}

TEST(Miner, ForcedSplittingRespectsMaxBagSize) {
  Rng rng(152);
  Relation r = testing_util::RandomTestRelation(&rng, 6, 3, 60);
  MinerOptions options;
  options.max_bag_size = 3;
  options.max_separator_size = 2;
  MinerReport report = MineJoinTree(r, options).value();
  for (uint32_t v = 0; v < report.tree.NumNodes(); ++v) {
    EXPECT_LE(report.tree.bag(v).Count(), 3u) << report.tree.ToString();
  }
}

// The builder's tree satisfies J = sum over its steps of H(w | S) minus
// H(all attributes), up to rounding. Every attribute joins exactly once,
// and each step's score is the mutual information it claims.
TEST(Miner, JEqualsTheChainOfAttachSteps) {
  Rng rng(153);
  for (int trial = 0; trial < 12; ++trial) {
    Relation r = testing_util::RandomTestRelation(&rng, 5, 3, 50);
    const AttrSet all = r.schema().AllAttrs();
    MinerOptions options;
    options.max_bag_size = 2 + trial % 3;
    MinerReport report = MineJoinTree(r, options).value();
    ASSERT_EQ(report.steps.size(), r.NumAttrs());
    AttrSet joined;
    double chain = -EntropyOf(r, all);
    for (const AttachStep& st : report.steps) {
      const AttrSet w = AttrSet::Singleton(st.attr);
      EXPECT_FALSE(joined.Contains(st.attr));
      EXPECT_TRUE(st.separator.IsSubsetOf(st.bag));
      EXPECT_TRUE(st.bag.IsSubsetOf(joined));
      joined = joined.Union(w);
      const double h_ws = EntropyOf(r, st.separator.Union(w));
      const double h_s = EntropyOf(r, st.separator);
      EXPECT_NEAR(st.mi, std::max(EntropyOf(r, w) + h_s - h_ws, 0.0),
                  1e-12);
      chain += h_ws - h_s;
    }
    EXPECT_EQ(joined, all);
    EXPECT_NEAR(report.j, chain, 1e-12)
        << "trial " << trial << "\n" << report.ToString(r.schema());
    EXPECT_NEAR(report.j, JMeasure(r, report.tree), 1e-12);
  }
}

// Every mined tree covers the schema and is reduced: no bag is contained
// in another, at every separator cap.
TEST(Miner, ProducesValidTreeOnRandomData) {
  Rng rng(154);
  for (int trial = 0; trial < 15; ++trial) {
    Relation r = testing_util::RandomTestRelation(&rng, 5, 4, 80);
    for (uint32_t max_sep = 0; max_sep <= 2; ++max_sep) {
      MinerOptions options;
      options.max_bag_size = 1 + trial % 4;
      options.max_separator_size = max_sep;
      MinerReport report = MineJoinTree(r, options).value();
      const JoinTree& t = report.tree;
      // Tree covers all attributes (JoinTree::Make already validated RIP).
      EXPECT_EQ(t.AllAttrs(), r.schema().AllAttrs());
      for (uint32_t u = 0; u < t.NumNodes(); ++u) {
        for (uint32_t v = 0; v < t.NumNodes(); ++v) {
          EXPECT_TRUE(u == v || !t.bag(u).IsSubsetOf(t.bag(v)))
              << "trial " << trial << " max_sep " << max_sep << "\n"
              << report.ToString(r.schema());
        }
      }
      // Lemma 4.1 prediction is consistent with the actual loss.
      AjdAnalysis a = AnalyzeAjd(r, t).value();
      EXPECT_LE(report.rho_lower_bound, a.loss.rho + 1e-6);
    }
  }
}

// With bags uncapped the builder grows every attribute into one bag:
// random data leaves no exact independence to hang on.
TEST(Miner, UncappedBagsGrowIntoOneBag) {
  Rng rng(155);
  Relation r = testing_util::RandomTestRelation(&rng, 4, 3, 40);
  MinerOptions options;
  options.max_bag_size = 64;
  MinerReport report = MineJoinTree(r, options).value();
  EXPECT_EQ(report.tree.NumNodes(), 1u);
  EXPECT_NEAR(report.j, 0.0, 1e-12);
}

TEST(Miner, RejectsDegenerateInputs) {
  Schema s1 = Schema::Make({{"A", 2}}).value();
  Relation one_attr = Relation::FromRows(s1, {{0}}).value();
  EXPECT_FALSE(MineJoinTree(one_attr).ok());

  Schema s2 = Schema::Make({{"A", 2}, {"B", 2}}).value();
  Relation empty = Relation::FromRows(s2, {}).value();
  EXPECT_FALSE(MineJoinTree(empty).ok());
}

TEST(Miner, NestedMvdsYieldPathDecomposition) {
  // Build data with two nested independencies: A _||_ B | C and
  // (AB C) _||_ D | B. Construct as product structure.
  Schema s = Schema::Make({{"A", 4}, {"B", 4}, {"C", 2}, {"D", 4}}).value();
  std::vector<std::vector<uint32_t>> rows;
  for (uint32_t c = 0; c < 2; ++c) {
    for (uint32_t a = 0; a < 2; ++a) {
      for (uint32_t b = 0; b < 2; ++b) {
        for (uint32_t d = 0; d < 2; ++d) {
          // Within C-group: A x B product; D depends only on B.
          rows.push_back({c * 2 + a, c * 2 + b, c, b * 2 + d});
        }
      }
    }
  }
  Relation r = Relation::FromRows(s, rows).value();
  MinerOptions options;
  options.max_bag_size = 2;
  MinerReport report = MineJoinTree(r, options).value();
  EXPECT_NEAR(report.j, 0.0, 1e-9);
  AjdAnalysis a = AnalyzeAjd(r, report.tree).value();
  EXPECT_TRUE(a.lossless);
}

TEST(Miner, ReportRendersWithNames) {
  Rng rng(156);
  Instance inst = MakeLosslessMvdInstance(6, 6, 3, 2, 2, &rng).value();
  MinerOptions options;
  options.max_bag_size = 2;
  MinerReport report = MineJoinTree(inst.relation, options).value();
  std::string text = report.ToString(inst.relation.schema());
  EXPECT_NE(text.find("bag"), std::string::npos);
  EXPECT_NE(text.find("hangs"), std::string::npos);
  EXPECT_NE(text.find("I = "), std::string::npos);
}

// Decodes a Prüfer sequence over n labels into the n - 1 edges of the
// labelled tree it names.
std::vector<std::pair<uint32_t, uint32_t>> PruferEdges(
    const std::vector<uint32_t>& code, uint32_t n) {
  std::vector<uint32_t> degree(n, 1);
  for (uint32_t c : code) ++degree[c];
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (uint32_t c : code) {
    for (uint32_t leaf = 0; leaf < n; ++leaf) {
      if (degree[leaf] == 1) {
        edges.emplace_back(leaf, c);
        --degree[leaf];
        --degree[c];
        break;
      }
    }
  }
  uint32_t u = n, v = n;
  for (uint32_t x = 0; x < n; ++x) {
    if (degree[x] == 1) (u == n ? u : v) = x;
  }
  edges.emplace_back(u, v);
  return edges;
}

// The join tree whose bags are the edges {a, b} of a spanning tree over the
// attributes. For each attribute, the first bag containing it is joined to
// every other bag containing it, so the running intersection property
// holds.
JoinTree PairTree(const std::vector<std::pair<uint32_t, uint32_t>>& edges,
                  uint32_t n) {
  std::vector<AttrSet> bags;
  for (auto [a, b] : edges) bags.push_back(AttrSet{a, b});
  std::vector<std::pair<uint32_t, uint32_t>> tree_edges;
  for (uint32_t x = 0; x < n; ++x) {
    uint32_t first = UINT32_MAX;
    for (uint32_t i = 0; i < bags.size(); ++i) {
      if (!bags[i].Contains(x)) continue;
      if (first == UINT32_MAX) {
        first = i;
      } else {
        tree_edges.emplace_back(first, i);
      }
    }
  }
  return JoinTree::Make(std::move(bags), std::move(tree_edges)).value();
}

// At max_bag_size = 2 the builder is Prim's algorithm on pairwise mutual
// information, so it must return a Chow–Liu tree: no labelled spanning
// pair tree (all n^(n-2) of them, by Prüfer code) has a lower J.
TEST(Miner, PairTreesMatchTheChowLiuOptimum) {
  Rng rng(160);
  for (uint32_t n = 4; n <= 6; ++n) {
    for (int trial = 0; trial < 4; ++trial) {
      Relation r = testing_util::RandomTestRelation(&rng, n, 3, 30 + 20 * n);
      MinerOptions options;
      options.max_bag_size = 2;
      MinerReport report = MineJoinTree(r, options).value();
      for (uint32_t v = 0; v < report.tree.NumNodes(); ++v) {
        EXPECT_LE(report.tree.bag(v).Count(), 2u);
      }
      EntropyCalculator calc(&r);
      double best = std::numeric_limits<double>::infinity();
      std::vector<uint32_t> code(n - 2, 0);
      while (true) {
        best = std::min(best, JMeasure(&calc, PairTree(PruferEdges(code, n),
                                                       n)));
        size_t i = 0;
        while (i < code.size() && ++code[i] == n) code[i++] = 0;
        if (i == code.size()) break;
      }
      EXPECT_NEAR(report.j, best, 1e-12)
          << "n=" << n << " trial=" << trial << "\n"
          << report.ToString(r.schema());
    }
  }
}

// Samples a Markov source along the binary tree parent(i) = (i - 1) / 2:
// attribute i copies a fixed permutation of its parent's value with
// probability 1 - eps and is uniform otherwise.
Relation PlantedMarkovTree(uint32_t n, uint32_t domain, double eps,
                           uint32_t rows, Rng* rng) {
  std::vector<std::vector<uint32_t>> perms(n);
  for (uint32_t i = 1; i < n; ++i) {
    perms[i].resize(domain);
    for (uint32_t x = 0; x < domain; ++x) perms[i][x] = x;
    for (uint32_t x = domain - 1; x > 0; --x) {
      std::swap(perms[i][x], perms[i][rng->UniformU64(x + 1)]);
    }
  }
  Schema schema =
      Schema::MakeSynthetic(std::vector<uint64_t>(n, domain)).value();
  RelationBuilder b(std::move(schema));
  std::vector<uint32_t> row(n);
  for (uint32_t k = 0; k < rows; ++k) {
    row[0] = static_cast<uint32_t>(rng->UniformU64(domain));
    for (uint32_t i = 1; i < n; ++i) {
      row[i] = rng->Bernoulli(eps)
                   ? static_cast<uint32_t>(rng->UniformU64(domain))
                   : perms[i][row[(i - 1) / 2]];
    }
    b.AddRow(row);
  }
  return std::move(b).Build(/*dedupe=*/true);
}

// On a noisy planted Markov tree the mined schema loses no more than the
// planted one: the planted pair tree is among the trees the Chow–Liu
// builder beats at max_bag_size = 2, and larger bags only help.
TEST(Miner, MinedJIsAtMostThePlantedTreesJ) {
  Rng rng(161);
  constexpr uint32_t kAttrs = 7;
  Relation r = PlantedMarkovTree(kAttrs, 4, 0.3, 2000, &rng);
  std::vector<std::pair<uint32_t, uint32_t>> planted_edges;
  for (uint32_t i = 1; i < kAttrs; ++i) {
    planted_edges.emplace_back((i - 1) / 2, i);
  }
  const double planted = JMeasure(r, PairTree(planted_edges, kAttrs));
  ASSERT_GT(planted, 0.0);
  for (uint32_t bag_size : {2u, 3u}) {
    MinerOptions options;
    options.max_bag_size = bag_size;
    MinerReport report = MineJoinTree(r, options).value();
    EXPECT_LE(report.j, planted + 1e-12)
        << "max_bag_size=" << bag_size << "\n"
        << report.ToString(r.schema());
  }
}

// max_bag_size = 1 leaves nothing to grow and no attribute to separate on:
// every attribute gets its own bag, hung on the empty separator, and J is
// the total correlation sum_a H(a) - H(all attributes).
TEST(Miner, MaxBagSizeOneYieldsSingletonBags) {
  Rng rng(162);
  Relation r = testing_util::RandomTestRelation(&rng, 5, 3, 60);
  MinerOptions options;
  options.max_bag_size = 1;
  MinerReport report = MineJoinTree(r, options).value();
  ASSERT_EQ(report.tree.NumNodes(), 5u);
  double total = -EntropyOf(r, r.schema().AllAttrs());
  for (uint32_t v = 0; v < 5; ++v) {
    EXPECT_EQ(report.tree.bag(v).Count(), 1u);
    total += EntropyOf(r, report.tree.bag(v));
  }
  for (const AttachStep& st : report.steps) {
    EXPECT_TRUE(st.separator.Empty());
    EXPECT_EQ(st.mi, 0.0);
  }
  EXPECT_NEAR(report.j, total, 1e-12);
}

// max_separator_size = 0 allows only the empty separator: bags still fill
// up to max_bag_size by growing, and every edge of the result separates on
// nothing.
TEST(Miner, MaxSeparatorSizeZeroHangsOnTheEmptySet) {
  Rng rng(163);
  Relation r = testing_util::RandomTestRelation(&rng, 6, 3, 80);
  MinerOptions options;
  options.max_separator_size = 0;
  MinerReport report = MineJoinTree(r, options).value();
  EXPECT_EQ(report.tree.AllAttrs(), r.schema().AllAttrs());
  for (uint32_t v = 0; v < report.tree.NumNodes(); ++v) {
    EXPECT_LE(report.tree.bag(v).Count(), 3u);
  }
  for (auto [u, v] : report.tree.Edges()) {
    EXPECT_TRUE(report.tree.bag(u).Intersect(report.tree.bag(v)).Empty());
  }
  for (const AttachStep& st : report.steps) {
    EXPECT_TRUE(st.separator.Empty() || st.separator == st.bag);
  }
  EXPECT_NEAR(report.j, JMeasure(r, report.tree), 1e-12);
}

// At the default max_bag_size = 3 an exact MVD C ->> A | B ends as its
// lossless pair bags {A,C}, {B,C}: the builder hangs B on {C}, because
// I(B; AC) = I(B; C) and ties go to the smaller separator. One extra tuple
// makes the MVD inexact, and the builder grows {A,B,C} instead.
TEST(Miner, ExactMvdHangsIntoPairBagsNoisyMvdGrowsOneBag) {
  Rng rng(164);
  Instance inst = MakeLosslessMvdInstance(10, 10, 6, 3, 3, &rng).value();
  const std::vector<AttrSet> pair_bags = {AttrSet{0, 2}, AttrSet{1, 2}};
  auto sorted_bags = [](const JoinTree& t) {
    std::vector<AttrSet> bags = t.bags();
    std::sort(bags.begin(), bags.end());
    return bags;
  };

  MinerReport exact = MineJoinTree(inst.relation).value();
  EXPECT_EQ(sorted_bags(exact.tree), pair_bags)
      << exact.ToString(inst.relation.schema());
  EXPECT_NEAR(exact.j, 0.0, 1e-9);

  Relation noisy = AddNoiseTuples(inst.relation, 1, &rng).value();
  const double cmi = EntropyOf(noisy, AttrSet{0, 2}) +
                     EntropyOf(noisy, AttrSet{1, 2}) -
                     EntropyOf(noisy, AttrSet{0, 1, 2}) -
                     EntropyOf(noisy, AttrSet{2});
  ASSERT_GT(cmi, 1e-6);
  MinerReport grown = MineJoinTree(noisy).value();
  ASSERT_EQ(grown.tree.NumNodes(), 1u) << grown.ToString(noisy.schema());
  EXPECT_EQ(grown.steps.back().separator, grown.steps.back().bag);
}

// A deduped full product makes every attribute independent of the rest:
// no pair shares information, so the tree opens with one attribute and
// hangs every other on the empty separator, one singleton bag each, and
// that schema is lossless.
TEST(Miner, PairwiseIndependentAttributesMineToSingletonBags) {
  for (const std::vector<uint64_t>& domains :
       {std::vector<uint64_t>{3, 3}, std::vector<uint64_t>{2, 3, 2, 4}}) {
    const uint32_t n = static_cast<uint32_t>(domains.size());
    RelationBuilder b(Schema::MakeSynthetic(domains).value());
    std::vector<uint32_t> row(n, 0);
    while (true) {
      b.AddRow(row);
      uint32_t i = 0;
      while (i < n && ++row[i] == domains[i]) row[i++] = 0;
      if (i == n) break;
    }
    Relation r = std::move(b).Build(/*dedupe=*/true);
    MinerReport report = MineJoinTree(r).value();
    ASSERT_EQ(report.tree.NumNodes(), n) << report.ToString(r.schema());
    for (uint32_t v = 0; v < n; ++v) {
      EXPECT_EQ(report.tree.bag(v).Count(), 1u);
    }
    for (const AttachStep& st : report.steps) {
      EXPECT_TRUE(st.separator.Empty());
    }
    EXPECT_NEAR(report.j, 0.0, 1e-12);
    EXPECT_TRUE(AnalyzeAjd(r, report.tree).value().lossless);
  }
}

}  // namespace
}  // namespace ajd
