// The acyclic join of a relation's bag projections, R' = join_i R[Omega_i],
// which defines the loss rho(R, S) = (|R'| - |R|) / |R| (Eq. 1),
// MATERIALIZED: R' itself by folding hash joins in DFS order after a full
// reduction. Exponential output in the worst case; intended for tests,
// spurious-tuple extraction, and small instances. Its size |R'| alone is
// counted without materializing by ComputeLoss (core/loss.h), from the
// engine's bag and separator partitions.
#ifndef AJD_RELATION_ACYCLIC_JOIN_H_
#define AJD_RELATION_ACYCLIC_JOIN_H_

#include <string>
#include <vector>

#include "jointree/join_tree.h"
#include "relation/relation.h"
#include "util/status.h"

namespace ajd {

/// Materializes R' = join_i R[Omega_i], with columns reordered to r's
/// attribute order restricted to chi(T). Intended for small instances.
Result<Relation> MaterializeAcyclicJoin(const Relation& r,
                                        const JoinTree& tree);

/// The spurious tuples R' \ R (requires chi(T) == all attributes of r).
/// Intended for small instances (materializes R').
Result<Relation> SpuriousTuples(const Relation& r, const JoinTree& tree);

/// Reorders/selects columns of `r` to the named attribute order `names`
/// (each name must exist in r). Rows are preserved (no dedup).
Result<Relation> ReorderColumns(const Relation& r,
                                const std::vector<std::string>& names);

}  // namespace ajd

#endif  // AJD_RELATION_ACYCLIC_JOIN_H_
