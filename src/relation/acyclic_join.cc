#include "relation/acyclic_join.h"

#include "relation/full_reducer.h"
#include "relation/ops.h"

namespace ajd {

Result<Relation> MaterializeAcyclicJoin(const Relation& r,
                                        const JoinTree& tree) {
  AJD_CHECK(tree.AllAttrs().IsSubsetOf(r.schema().AllAttrs()));
  // Yannakakis: full-reduce the projections first so that every
  // intermediate join result extends to a final result (no transient
  // blow-up beyond the output size), then fold joins in DFS order.
  Result<ReducedProjections> reduced = FullReduce(r, tree);
  if (!reduced.ok()) return reduced.status();
  DfsDecomposition dec = tree.Decompose(0);
  Relation acc = std::move(reduced.value().per_node[dec.order[0]]);
  for (size_t i = 1; i < dec.order.size(); ++i) {
    Result<Relation> joined =
        NaturalJoin(acc, reduced.value().per_node[dec.order[i]]);
    if (!joined.ok()) return joined.status();
    acc = std::move(joined).value();
  }
  // Reorder columns to r's attribute order restricted to chi(T).
  std::vector<std::string> names = r.schema().NamesOf(tree.AllAttrs());
  return ReorderColumns(acc, names);
}

Result<Relation> SpuriousTuples(const Relation& r, const JoinTree& tree) {
  if (tree.AllAttrs() != r.schema().AllAttrs()) {
    return Status::InvalidArgument(
        "SpuriousTuples requires the tree to cover all attributes");
  }
  Result<Relation> joined = MaterializeAcyclicJoin(r, tree);
  if (!joined.ok()) return joined.status();
  return Difference(joined.value(), r);
}

Result<Relation> ReorderColumns(const Relation& r,
                                const std::vector<std::string>& names) {
  std::vector<uint32_t> positions;
  std::vector<Attribute> attrs;
  positions.reserve(names.size());
  for (const std::string& n : names) {
    auto pos = r.schema().Find(n);
    if (!pos) return Status::NotFound("no attribute named '" + n + "'");
    positions.push_back(*pos);
    attrs.push_back(r.schema().attr(*pos));
  }
  Result<Schema> schema = Schema::Make(std::move(attrs));
  if (!schema.ok()) return schema.status();
  RelationBuilder b(std::move(schema).value());
  b.Reserve(r.NumRows());
  std::vector<uint32_t> row(positions.size());
  for (uint64_t i = 0; i < r.NumRows(); ++i) {
    const uint32_t* src = r.Row(i);
    for (size_t k = 0; k < positions.size(); ++k) row[k] = src[positions[k]];
    b.AddRow(row);
  }
  Relation out = std::move(b).Build(/*dedupe=*/false);
  for (size_t k = 0; k < positions.size(); ++k) {
    const Dictionary* d = r.dict(positions[k]);
    if (d != nullptr) out.SetDict(static_cast<uint32_t>(k), *d);
  }
  return out;
}

}  // namespace ajd
