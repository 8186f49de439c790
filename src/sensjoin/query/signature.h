#ifndef SENSJOIN_QUERY_SIGNATURE_H_
#define SENSJOIN_QUERY_SIGNATURE_H_

#include <string>

#include "sensjoin/query/query.h"

namespace sensjoin::query {

/// Canonical sharing signature of an analyzed query: two continuous queries
/// with equal signatures collect exactly the same quantized join-attribute
/// keys from every node in every epoch, so one Join-Attribute-Collection
/// phase (and one set of in-network subtree structures) serves both.
///
/// The signature covers what the *collection* semantics depend on:
///  - the FROM entries in order, each as (relation, canonical selection
///    text) — relations determine membership flags, selections determine
///    which nodes report at all. Selection literals print exactly
///    (Expr::ToString with exact_literals), so selections that differ in
///    any digit never share a collection;
///  - the union of join-attribute indices over all entries — these are the
///    quantizer dimensions encoded into each key.
///
/// Deliberately excluded: the SELECT list and the join predicates. Those
/// differ freely within a sharing group — each member keeps its own join
/// filter (base-station computation only) and its own exact final join, and
/// the group disseminates the union of the member filters, which is
/// conservative and therefore still exact after the per-query final join.
///
/// Protocol knobs (Treecut, Dmax, selective forwarding, representation) are
/// NOT part of this signature; the service layer appends them to its group
/// key, since they change wire behavior but not query semantics.
std::string SharingSignatureOf(const AnalyzedQuery& q);

}  // namespace sensjoin::query

#endif  // SENSJOIN_QUERY_SIGNATURE_H_
