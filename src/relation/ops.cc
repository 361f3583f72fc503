#include "relation/ops.h"

#include <algorithm>
#include <string>

#include "relation/row_hash.h"

namespace ajd {

namespace {

// Copies the values of `positions` from `row` into `out`.
inline void GatherInto(const uint32_t* row, const std::vector<uint32_t>& positions,
                       uint32_t* out) {
  for (size_t i = 0; i < positions.size(); ++i) out[i] = row[positions[i]];
}

// Positions (in each relation) of the attributes shared by name.
struct SharedAttrs {
  std::vector<uint32_t> left_pos;
  std::vector<uint32_t> right_pos;
  std::vector<uint32_t> right_only_pos;
};

SharedAttrs FindShared(const Relation& left, const Relation& right) {
  SharedAttrs shared;
  for (uint32_t rp = 0; rp < right.NumAttrs(); ++rp) {
    auto lp = left.schema().Find(right.schema().attr(rp).name);
    if (lp.has_value()) {
      shared.left_pos.push_back(*lp);
      shared.right_pos.push_back(rp);
    } else {
      shared.right_only_pos.push_back(rp);
    }
  }
  return shared;
}

Status CheckDictCompatible(const Relation& left, const Relation& right,
                           const SharedAttrs& shared) {
  for (size_t i = 0; i < shared.left_pos.size(); ++i) {
    const Dictionary* ld = left.dict(shared.left_pos[i]);
    const Dictionary* rd = right.dict(shared.right_pos[i]);
    if ((ld == nullptr) != (rd == nullptr)) {
      return Status::InvalidArgument(
          "shared attribute '" +
          left.schema().attr(shared.left_pos[i]).name +
          "' is dictionary-encoded on one side only");
    }
    if (ld != nullptr && rd != nullptr && ld->size() != rd->size()) {
      return Status::InvalidArgument(
          "shared attribute '" +
          left.schema().attr(shared.left_pos[i]).name +
          "' has mismatched dictionaries");
    }
  }
  return Status::OK();
}

}  // namespace

Relation Project(const Relation& r, AttrSet attrs) {
  AJD_CHECK_MSG(!attrs.Empty(), "projection onto empty attribute set");
  AJD_CHECK(attrs.IsSubsetOf(r.schema().AllAttrs()));
  std::vector<uint32_t> positions = attrs.ToIndices();
  const size_t width = positions.size();

  std::vector<Attribute> out_attrs;
  out_attrs.reserve(width);
  for (uint32_t p : positions) out_attrs.push_back(r.schema().attr(p));
  Result<Schema> schema = Schema::Make(std::move(out_attrs));
  AJD_CHECK(schema.ok());

  std::vector<uint32_t> key(width);
  RelationBuilder b(std::move(schema).value());
  for (uint64_t i = 0; i < r.NumRows(); ++i) {
    GatherInto(r.Row(i), positions, key.data());
    b.AddRowPtr(key.data());
  }
  // Build keeps each projected row's first occurrence, in order, and marks
  // the result duplicate-free (its distinct-prefix watermark covers it).
  Relation out = std::move(b).Build(/*dedupe=*/true);
  // Propagate dictionaries of the projected attributes.
  for (size_t i = 0; i < positions.size(); ++i) {
    const Dictionary* d = r.dict(positions[i]);
    if (d != nullptr) out.SetDict(static_cast<uint32_t>(i), *d);
  }
  return out;
}

uint64_t CountDistinct(const Relation& r, AttrSet attrs) {
  AJD_CHECK(!attrs.Empty());
  AJD_CHECK(attrs.IsSubsetOf(r.schema().AllAttrs()));
  std::vector<uint32_t> positions = attrs.ToIndices();
  TupleCounter counter(positions.size(), r.NumRows());
  std::vector<uint32_t> key(positions.size());
  for (uint64_t i = 0; i < r.NumRows(); ++i) {
    GatherInto(r.Row(i), positions, key.data());
    counter.Add(key.data());
  }
  return counter.NumDistinct();
}

Relation Select(const Relation& r, uint32_t pos, uint32_t value) {
  return SelectWhere(r, [pos, value](const uint32_t* row) {
    return row[pos] == value;
  });
}

Relation SelectWhere(const Relation& r,
                     const std::function<bool(const uint32_t*)>& pred) {
  RelationBuilder b(r.schema());
  for (uint64_t i = 0; i < r.NumRows(); ++i) {
    if (pred(r.Row(i))) b.AddRowPtr(r.Row(i));
  }
  Relation out = std::move(b).Build(/*dedupe=*/false);
  for (uint32_t a = 0; a < r.NumAttrs(); ++a) {
    const Dictionary* d = r.dict(a);
    if (d != nullptr) out.SetDict(a, *d);
  }
  return out;
}

Result<Relation> NaturalJoin(const Relation& left, const Relation& right) {
  SharedAttrs shared = FindShared(left, right);
  Status st = CheckDictCompatible(left, right, shared);
  if (!st.ok()) return st;

  // Output schema: all of left, then right-only attributes.
  std::vector<Attribute> out_attrs;
  for (uint32_t a = 0; a < left.NumAttrs(); ++a) {
    out_attrs.push_back(left.schema().attr(a));
  }
  for (uint32_t rp : shared.right_only_pos) {
    out_attrs.push_back(right.schema().attr(rp));
  }
  // Merge domain sizes for shared attributes.
  for (size_t i = 0; i < shared.left_pos.size(); ++i) {
    out_attrs[shared.left_pos[i]].domain_size =
        std::max(out_attrs[shared.left_pos[i]].domain_size,
                 right.schema().attr(shared.right_pos[i]).domain_size);
  }
  Result<Schema> out_schema = Schema::Make(std::move(out_attrs));
  if (!out_schema.ok()) return out_schema.status();

  const size_t key_width = shared.left_pos.size();
  RelationBuilder b(std::move(out_schema).value());

  if (key_width == 0) {
    // Cross product.
    std::vector<uint32_t> row(left.NumAttrs() + right.NumAttrs());
    for (uint64_t i = 0; i < left.NumRows(); ++i) {
      std::copy(left.Row(i), left.Row(i) + left.NumAttrs(), row.begin());
      for (uint64_t j = 0; j < right.NumRows(); ++j) {
        for (size_t k = 0; k < shared.right_only_pos.size(); ++k) {
          row[left.NumAttrs() + k] = right.Row(j)[shared.right_only_pos[k]];
        }
        b.AddRow(row);
      }
    }
  } else {
    // Hash join: build postings on the right, probe with the left.
    TupleCounter keys(key_width, right.NumRows());
    std::vector<std::vector<uint64_t>> postings;
    std::vector<uint32_t> key(key_width);
    for (uint64_t j = 0; j < right.NumRows(); ++j) {
      GatherInto(right.Row(j), shared.right_pos, key.data());
      uint32_t idx = keys.Add(key.data());
      if (idx == postings.size()) postings.emplace_back();
      postings[idx].push_back(j);
    }
    std::vector<uint32_t> row(left.NumAttrs() + shared.right_only_pos.size());
    for (uint64_t i = 0; i < left.NumRows(); ++i) {
      GatherInto(left.Row(i), shared.left_pos, key.data());
      uint32_t idx = keys.Find(key.data());
      if (idx == UINT32_MAX) continue;
      std::copy(left.Row(i), left.Row(i) + left.NumAttrs(), row.begin());
      for (uint64_t j : postings[idx]) {
        for (size_t k = 0; k < shared.right_only_pos.size(); ++k) {
          row[left.NumAttrs() + k] = right.Row(j)[shared.right_only_pos[k]];
        }
        b.AddRow(row);
      }
    }
  }

  Relation out = std::move(b).Build(/*dedupe=*/false);
  for (uint32_t a = 0; a < left.NumAttrs(); ++a) {
    const Dictionary* d = left.dict(a);
    if (d != nullptr) out.SetDict(a, *d);
  }
  for (size_t k = 0; k < shared.right_only_pos.size(); ++k) {
    const Dictionary* d = right.dict(shared.right_only_pos[k]);
    if (d != nullptr) out.SetDict(left.NumAttrs() + static_cast<uint32_t>(k), *d);
  }
  return out;
}

Result<uint64_t> NaturalJoinSize(const Relation& left, const Relation& right) {
  SharedAttrs shared = FindShared(left, right);
  Status st = CheckDictCompatible(left, right, shared);
  if (!st.ok()) return st;
  const size_t key_width = shared.left_pos.size();
  if (key_width == 0) return left.NumRows() * right.NumRows();

  TupleCounter right_counts(key_width, right.NumRows());
  std::vector<uint32_t> key(key_width);
  for (uint64_t j = 0; j < right.NumRows(); ++j) {
    GatherInto(right.Row(j), shared.right_pos, key.data());
    right_counts.Add(key.data());
  }
  uint64_t total = 0;
  for (uint64_t i = 0; i < left.NumRows(); ++i) {
    GatherInto(left.Row(i), shared.left_pos, key.data());
    uint32_t idx = right_counts.Find(key.data());
    if (idx != UINT32_MAX) total += right_counts.CountAt(idx);
  }
  return total;
}

Result<Relation> SemiJoin(const Relation& left, const Relation& right) {
  SharedAttrs shared = FindShared(left, right);
  Status st = CheckDictCompatible(left, right, shared);
  if (!st.ok()) return st;
  const size_t key_width = shared.left_pos.size();
  if (key_width == 0) {
    return right.NumRows() > 0 ? left : SelectWhere(left, [](const uint32_t*) {
      return false;
    });
  }
  TupleCounter keys(key_width, right.NumRows());
  std::vector<uint32_t> key(key_width);
  for (uint64_t j = 0; j < right.NumRows(); ++j) {
    GatherInto(right.Row(j), shared.right_pos, key.data());
    keys.Add(key.data());
  }
  const std::vector<uint32_t> left_pos = shared.left_pos;
  return SelectWhere(left, [&keys, &left_pos, &key](const uint32_t* row) {
    GatherInto(row, left_pos, key.data());
    return keys.Find(key.data()) != UINT32_MAX;
  });
}

namespace {

// Same attribute names in the same order (domain sizes may differ, e.g.
// between a base relation and a join output with merged domains).
bool SameAttrNames(const Relation& a, const Relation& b) {
  if (a.NumAttrs() != b.NumAttrs()) return false;
  for (uint32_t i = 0; i < a.NumAttrs(); ++i) {
    if (a.schema().attr(i).name != b.schema().attr(i).name) return false;
  }
  return true;
}

}  // namespace

Result<Relation> Difference(const Relation& left, const Relation& right) {
  if (!SameAttrNames(left, right)) {
    return Status::InvalidArgument(
        "Difference requires identical attribute lists");
  }
  const uint32_t width = left.NumAttrs();
  TupleCounter rows(width, right.NumRows());
  for (uint64_t j = 0; j < right.NumRows(); ++j) rows.Add(right.Row(j));
  return SelectWhere(left, [&rows](const uint32_t* row) {
    return rows.Find(row) == UINT32_MAX;
  });
}

bool SetEquals(const Relation& a, const Relation& b) {
  if (!SameAttrNames(a, b)) return false;
  if (a.NumDistinctRows() != b.NumDistinctRows()) return false;
  const uint32_t width = a.NumAttrs();
  TupleCounter rows(width, b.NumRows());
  for (uint64_t j = 0; j < b.NumRows(); ++j) rows.Add(b.Row(j));
  for (uint64_t i = 0; i < a.NumRows(); ++i) {
    if (rows.Find(a.Row(i)) == UINT32_MAX) return false;
  }
  return true;
}

}  // namespace ajd
