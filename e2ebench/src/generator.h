// Seeded inputs with a planted acyclic schema.
//
// A tree-structured Markov source: attribute 0 is uniform over the domain;
// attribute i > 0 copies f_i(parent(i)) with probability 1 - eps and is
// uniform otherwise, where f_i is a random function of the domain drawn
// once per source. The planted join tree has one bag {parent(i), i} per
// edge, so its J-measure is small but positive (the noise makes it lossy).
//
// The functions are random permutations: every seed then draws from the
// same distribution up to a relabeling of each attribute's values, which
// leaves every entropy (and so the miner's search and the engine's work)
// unchanged. Seeds vary the sample, not the amount of work.
#ifndef AJD_E2EBENCH_GENERATOR_H_
#define AJD_E2EBENCH_GENERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "random/rng.h"
#include "relation/relation.h"
#include "relation/schema.h"

namespace e2ebench {

using Rows = std::vector<std::vector<uint32_t>>;

/// parent(i) = (i - 1) / 2: the planted binary tree.
std::vector<uint32_t> BinaryTreeParents(uint32_t attrs);

/// parent(i) = i - 1: a chain, the structure the stream shifts to.
std::vector<uint32_t> ChainParents(uint32_t attrs);

class MarkovSource {
 public:
  /// Draws the per-attribute functions from `rng`. parents[0] is ignored.
  MarkovSource(std::vector<uint32_t> parents, uint32_t domain, double eps,
               ajd::Rng* rng);

  /// `n` rows of codes in [0, domain).
  Rows Draw(uint64_t n, ajd::Rng* rng) const;

 private:
  std::vector<uint32_t> parents_;
  uint32_t domain_;
  double eps_;
  std::vector<std::vector<uint32_t>> functions_;
};

/// Attributes a0..a{attrs-1}, each with `domain` values.
ajd::Schema MakeSchema(uint32_t attrs, uint32_t domain);

/// An empty relation over `schema`, ready for appends.
ajd::Relation EmptyRelation(const ajd::Schema& schema);

/// The CSV value of a code ("v<code>").
std::string ValueOf(uint32_t code);

/// Rows as CSV text with a header row, values rendered by ValueOf.
std::string RenderCsv(const ajd::Schema& schema, const Rows& rows);

/// Rows as string values (the AppendStringBatch form).
std::vector<std::vector<std::string>> ToStrings(const Rows& rows);

}  // namespace e2ebench

#endif  // AJD_E2EBENCH_GENERATOR_H_
