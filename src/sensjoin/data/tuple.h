#ifndef SENSJOIN_DATA_TUPLE_H_
#define SENSJOIN_DATA_TUPLE_H_

#include <vector>

#include "sensjoin/sim/time.h"

namespace sensjoin::data {

/// One sensor tuple: the readings of a single node under some Schema, in
/// schema attribute order. `node` records the contributing node (used by
/// Treecut proxies and for per-node accounting; it is not an attribute).
struct Tuple {
  sim::NodeId node = sim::kInvalidNode;
  std::vector<double> values;

  friend bool operator==(const Tuple& a, const Tuple& b) {
    return a.node == b.node && a.values == b.values;
  }
};

}  // namespace sensjoin::data

#endif  // SENSJOIN_DATA_TUPLE_H_
