#include "sensjoin/data/schema.h"

#include <utility>

#include "sensjoin/common/logging.h"

namespace sensjoin::data {

Schema::Schema(std::vector<AttributeDef> attributes)
    : attributes_(std::move(attributes)) {
  for (const AttributeDef& a : attributes_) {
    SENSJOIN_CHECK_GT(a.wire_bytes, 0) << "attribute" << a.name;
  }
}

int Schema::IndexOf(const std::string& name) const {
  for (int i = 0; i < num_attributes(); ++i) {
    if (attributes_[i].name == name) return i;
  }
  return -1;
}

int Schema::ProjectionWireBytes(const std::vector<int>& indices) const {
  int total = 0;
  for (int i : indices) {
    SENSJOIN_CHECK(i >= 0 && i < num_attributes());
    total += attributes_[i].wire_bytes;
  }
  return total;
}

Schema Schema::Project(const std::vector<int>& indices) const {
  std::vector<AttributeDef> projected;
  projected.reserve(indices.size());
  for (int i : indices) {
    SENSJOIN_CHECK(i >= 0 && i < num_attributes());
    projected.push_back(attributes_[i]);
  }
  return Schema(std::move(projected));
}

}  // namespace sensjoin::data
