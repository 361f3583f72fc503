// Experiment PERF-REDUCER — the Yannakakis full reducer vs naive
// materialization, and the semijoin primitive. google-benchmark.
#include <benchmark/benchmark.h>

#include "random/random_relation.h"
#include "random/rng.h"
#include "relation/full_reducer.h"
#include "relation/ops.h"

namespace {

using namespace ajd;

Relation MakeInput(uint64_t n) {
  Rng rng(23);
  RandomRelationSpec spec;
  spec.domain_sizes = {64, 64, 64, 64};
  spec.num_tuples = n;
  return SampleRandomRelation(spec, &rng).value();
}

JoinTree PathTree() {
  return JoinTree::Path({AttrSet{0, 1}, AttrSet{1, 2}, AttrSet{2, 3}})
      .value();
}

void BM_FullReduce(benchmark::State& state) {
  Relation r = MakeInput(state.range(0));
  JoinTree t = PathTree();
  for (auto _ : state) {
    ReducedProjections reduced = FullReduce(r, t).value();
    benchmark::DoNotOptimize(reduced.total_removed);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FullReduce)->Arg(1 << 10)->Arg(1 << 13)->Arg(1 << 16);

void BM_SemiJoin(benchmark::State& state) {
  Relation r = MakeInput(state.range(0));
  Relation left = Project(r, AttrSet{0, 1});
  Relation right = Project(r, AttrSet{1, 2});
  for (auto _ : state) {
    Relation sj = SemiJoin(left, right).value();
    benchmark::DoNotOptimize(sj.NumRows());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SemiJoin)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

}  // namespace

BENCHMARK_MAIN();
