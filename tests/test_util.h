// Shared helpers for randomized/property tests: random relations and random
// join trees with validity guaranteed by construction.
#ifndef AJD_TESTS_TEST_UTIL_H_
#define AJD_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <ios>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "jointree/join_tree.h"
#include "random/rng.h"
#include "relation/relation.h"
#include "util/check.h"

namespace ajd {
namespace testing_util {

/// A random relation over `num_attrs` attributes with per-attribute domain
/// `domain`, built from `rows` draws WITH replacement and then deduplicated
/// (so N <= rows). Always non-empty for rows >= 1.
inline Relation RandomTestRelation(Rng* rng, uint32_t num_attrs,
                                   uint32_t domain, uint32_t rows) {
  AJD_CHECK(num_attrs >= 1 && domain >= 1 && rows >= 1);
  std::vector<uint64_t> dims(num_attrs, domain);
  Result<Schema> schema = Schema::MakeSynthetic(dims);
  AJD_CHECK(schema.ok());
  RelationBuilder b(std::move(schema).value());
  std::vector<uint32_t> row(num_attrs);
  for (uint32_t i = 0; i < rows; ++i) {
    for (uint32_t a = 0; a < num_attrs; ++a) {
      row[a] = static_cast<uint32_t>(rng->UniformU64(domain));
    }
    b.AddRow(row);
  }
  return std::move(b).Build(/*dedupe=*/true);
}

/// A random PATH join tree over attributes {0..num_attrs-1}: each attribute
/// is assigned a random interval of the m bag slots, which guarantees the
/// running intersection property. All bags are non-empty and every
/// attribute is covered. m is in [2, max_bags].
inline JoinTree RandomPathJoinTree(Rng* rng, uint32_t num_attrs,
                                   uint32_t max_bags = 4) {
  AJD_CHECK(num_attrs >= 2 && max_bags >= 2);
  while (true) {
    uint32_t m = 2 + static_cast<uint32_t>(rng->UniformU64(max_bags - 1));
    std::vector<AttrSet> bags(m);
    for (uint32_t a = 0; a < num_attrs; ++a) {
      uint32_t lo = static_cast<uint32_t>(rng->UniformU64(m));
      uint32_t hi = lo + static_cast<uint32_t>(rng->UniformU64(m - lo));
      for (uint32_t j = lo; j <= hi; ++j) bags[j].Add(a);
    }
    bool ok = true;
    for (const AttrSet& b : bags) ok = ok && !b.Empty();
    if (!ok) continue;
    Result<JoinTree> tree = JoinTree::Path(std::move(bags));
    if (tree.ok()) return std::move(tree).value();
  }
}

/// A random star join tree for an MVD X ->> Y1 | ... | Yk over all
/// attributes: X is a random (possibly empty) subset, the rest are randomly
/// partitioned into k >= 2 non-empty branches.
inline JoinTree RandomStarJoinTree(Rng* rng, uint32_t num_attrs) {
  AJD_CHECK(num_attrs >= 2);
  while (true) {
    AttrSet x;
    for (uint32_t a = 0; a < num_attrs; ++a) {
      if (rng->Bernoulli(0.25)) x.Add(a);
    }
    AttrSet rest = AttrSet::Range(num_attrs).Minus(x);
    if (rest.Count() < 2) continue;
    uint32_t k = 2 + static_cast<uint32_t>(
                         rng->UniformU64(std::max(1u, rest.Count() - 1)));
    std::vector<AttrSet> branches(k);
    uint32_t idx = 0;
    // Ensure the first k attributes of `rest` seed distinct branches.
    rest.ForEach([&](uint32_t a) {
      if (idx < k) {
        branches[idx].Add(a);
      } else {
        branches[rng->UniformU64(k)].Add(a);
      }
      ++idx;
    });
    if (idx < k) continue;  // fewer rest attrs than branches
    Result<JoinTree> tree = JoinTree::FromMvdPartition(x, branches);
    if (tree.ok()) return std::move(tree).value();
  }
}

/// Alternates between path and star trees.
inline JoinTree RandomJoinTree(Rng* rng, uint32_t num_attrs) {
  return rng->Bernoulli(0.5) ? RandomPathJoinTree(rng, num_attrs)
                             : RandomStarJoinTree(rng, num_attrs);
}

/// A streambuf over `text` that hands out at most `max_chunk` bytes per
/// underflow (a seeded random size in [1, max_chunk]) and reports nothing
/// buffered beyond its current chunk, like a pipe. With `stop_at_newline`
/// no chunk crosses a '\n', so a reader that asks for more than it needs
/// is visible in handed_out(). Reports its position to tellg() only when
/// `seekable`; it never seeks.
class TrickleStreambuf : public std::streambuf {
 public:
  TrickleStreambuf(std::string text, size_t max_chunk, bool seekable,
                   bool stop_at_newline, uint64_t seed = 1)
      : text_(std::move(text)),
        max_chunk_(max_chunk),
        seekable_(seekable),
        stop_at_newline_(stop_at_newline),
        rng_(seed) {}

  /// Bytes handed to the reader so far (through the current chunk).
  size_t handed_out() const { return next_; }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (next_ >= text_.size()) return traits_type::eof();
    size_t n = 1 + static_cast<size_t>(rng_.UniformU64(max_chunk_));
    n = std::min(n, text_.size() - next_);
    char* begin = text_.data() + next_;
    if (stop_at_newline_) {
      const void* nl = std::memchr(begin, '\n', n);
      if (nl != nullptr) n = static_cast<const char*>(nl) - begin + 1;
    }
    setg(begin, begin, begin + n);
    next_ += n;
    return traits_type::to_int_type(*gptr());
  }

  pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                   std::ios_base::openmode) override {
    if (!seekable_ || off != 0 || dir != std::ios_base::cur) {
      return pos_type(off_type(-1));
    }
    return pos_type(off_type(next_ - (egptr() - gptr())));
  }

 private:
  std::string text_;
  size_t max_chunk_;
  bool seekable_;
  bool stop_at_newline_;
  Rng rng_;
  size_t next_ = 0;
};

}  // namespace testing_util
}  // namespace ajd

#endif  // AJD_TESTS_TEST_UTIL_H_
