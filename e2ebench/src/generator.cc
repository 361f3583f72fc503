#include "generator.h"

#include <utility>

#include "util/check.h"

namespace e2ebench {

std::vector<uint32_t> BinaryTreeParents(uint32_t attrs) {
  std::vector<uint32_t> parents(attrs, 0);
  for (uint32_t i = 1; i < attrs; ++i) parents[i] = (i - 1) / 2;
  return parents;
}

std::vector<uint32_t> ChainParents(uint32_t attrs) {
  std::vector<uint32_t> parents(attrs, 0);
  for (uint32_t i = 1; i < attrs; ++i) parents[i] = i - 1;
  return parents;
}

MarkovSource::MarkovSource(std::vector<uint32_t> parents, uint32_t domain,
                           double eps, ajd::Rng* rng)
    : parents_(std::move(parents)), domain_(domain), eps_(eps) {
  functions_.resize(parents_.size());
  for (auto& f : functions_) {
    f.resize(domain_);
    for (uint32_t v = 0; v < domain_; ++v) f[v] = v;
    rng->Shuffle(&f);
  }
}

Rows MarkovSource::Draw(uint64_t n, ajd::Rng* rng) const {
  const size_t attrs = parents_.size();
  Rows rows(n, std::vector<uint32_t>(attrs, 0));
  for (auto& row : rows) {
    row[0] = static_cast<uint32_t>(rng->UniformU64(domain_));
    for (size_t i = 1; i < attrs; ++i) {
      row[i] = rng->Bernoulli(eps_)
                   ? static_cast<uint32_t>(rng->UniformU64(domain_))
                   : functions_[i][row[parents_[i]]];
    }
  }
  return rows;
}

ajd::Schema MakeSchema(uint32_t attrs, uint32_t domain) {
  std::vector<std::string> names;
  for (uint32_t i = 0; i < attrs; ++i) names.push_back("a" + std::to_string(i));
  auto schema = ajd::Schema::MakeUniform(names, domain);
  AJD_CHECK(schema.ok());
  return std::move(schema).value();
}

ajd::Relation EmptyRelation(const ajd::Schema& schema) {
  return std::move(ajd::RelationBuilder(schema)).Build(false);
}

std::string ValueOf(uint32_t code) { return "v" + std::to_string(code); }

std::string RenderCsv(const ajd::Schema& schema, const Rows& rows) {
  std::string out;
  out.reserve(rows.size() * schema.size() * 4 + 64);
  for (uint32_t a = 0; a < schema.size(); ++a) {
    if (a > 0) out += ',';
    out += schema.attr(a).name;
  }
  out += '\n';
  for (const auto& row : rows) {
    for (size_t a = 0; a < row.size(); ++a) {
      if (a > 0) out += ',';
      out += 'v';
      out += std::to_string(row[a]);
    }
    out += '\n';
  }
  return out;
}

std::vector<std::vector<std::string>> ToStrings(const Rows& rows) {
  std::vector<std::vector<std::string>> out;
  out.reserve(rows.size());
  for (const auto& row : rows) {
    std::vector<std::string> values;
    values.reserve(row.size());
    for (uint32_t code : row) values.push_back(ValueOf(code));
    out.push_back(std::move(values));
  }
  return out;
}

}  // namespace e2ebench
