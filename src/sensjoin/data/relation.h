#ifndef SENSJOIN_DATA_RELATION_H_
#define SENSJOIN_DATA_RELATION_H_

#include <string>
#include <utility>
#include <vector>

#include "sensjoin/data/schema.h"
#include "sensjoin/data/tuple.h"

namespace sensjoin::data {

/// A materialized sensor relation: the database abstraction of (a group of
/// nodes of) the network at one snapshot. Used at the base station for the
/// filter join and the final result computation, and by tests as ground
/// truth.
class Relation {
 public:
  Relation() = default;
  Relation(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  void Add(Tuple tuple);

  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }
  const Tuple& tuple(size_t i) const { return tuples_[i]; }
  const std::vector<Tuple>& tuples() const { return tuples_; }

 private:
  std::string name_;
  Schema schema_;
  std::vector<Tuple> tuples_;
};

}  // namespace sensjoin::data

#endif  // SENSJOIN_DATA_RELATION_H_
