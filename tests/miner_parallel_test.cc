// Determinism of the parallelized mining hot path: threaded engines batch
// candidate scoring, but selection always happens after a batch completes,
// in a fixed candidate order, so the mined tree and every reported score
// must be independent of the thread count.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "discovery/miner.h"
#include "engine/analysis_session.h"
#include "random/rng.h"
#include "test_util.h"

namespace ajd {
namespace {

// Randomized matrix over attrs/rows/threads: for every relation the serial
// rendering is the reference and every thread count must reproduce it
// byte for byte.
TEST(MinerParallel, MatchesSerialAcrossMatrix) {
  Rng rng(4242);
  const uint32_t attr_counts[] = {4, 5, 6};
  const uint32_t row_counts[] = {50, 140};
  const uint32_t thread_counts[] = {2, 4};
  for (uint32_t attrs : attr_counts) {
    for (uint32_t rows : row_counts) {
      Relation r = testing_util::RandomTestRelation(&rng, attrs, 3, rows);
      MinerOptions options;
      options.max_bag_size = 2;
      options.num_threads = 1;
      MinerReport serial = MineJoinTree(r, options).value();
      const std::string expected = serial.ToString(r.schema());
      for (uint32_t threads : thread_counts) {
        options.num_threads = threads;
        MinerReport threaded = MineJoinTree(r, options).value();
        EXPECT_EQ(threaded.ToString(r.schema()), expected)
            << "attrs=" << attrs << " rows=" << rows
            << " threads=" << threads;
      }
    }
  }
}

// The session overload must be just as thread-count-agnostic, and the
// session arriving pre-warmed (a prior mine over the same relation) must
// not change the answer either.
TEST(MinerParallel, WarmSessionDoesNotChangeTheAnswer) {
  Rng rng(4711);
  Relation r = testing_util::RandomTestRelation(&rng, 5, 3, 120);
  MinerOptions options;
  options.max_bag_size = 2;
  MinerReport cold = MineJoinTree(r, options).value();

  EngineOptions engine_options;
  engine_options.num_threads = 4;
  AnalysisSession session(engine_options);
  MinerReport first = MineJoinTree(&session, r, options).value();
  MinerReport again = MineJoinTree(&session, r, options).value();
  EXPECT_EQ(first.ToString(r.schema()), cold.ToString(r.schema()));
  EXPECT_EQ(again.ToString(r.schema()), cold.ToString(r.schema()));
}

}  // namespace
}  // namespace ajd
