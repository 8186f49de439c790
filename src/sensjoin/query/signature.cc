#include "sensjoin/query/signature.h"

namespace sensjoin::query {

std::string SharingSignatureOf(const AnalyzedQuery& q) {
  std::string sig;
  for (int t = 0; t < q.num_tables(); ++t) {
    const AnalyzedTable& table = q.table(t);
    sig += "from(";
    sig += table.relation;
    sig += ";";
    if (table.selection != nullptr) {
      sig += table.selection->ToString(/*exact_literals=*/true);
    }
    sig += ")";
  }
  sig += "dims(";
  for (int a : q.JoinAttrIndices()) {
    sig += std::to_string(a);
    sig += ",";
  }
  sig += ")";
  return sig;
}

}  // namespace sensjoin::query
