#ifndef SENSJOIN_DATA_SCHEMA_H_
#define SENSJOIN_DATA_SCHEMA_H_

#include <string>
#include <vector>

namespace sensjoin::data {

/// One attribute of a sensor relation. Sensor readings are numeric; the
/// paper assumes two bytes on the wire per attribute value (Sec. IV-B).
struct AttributeDef {
  std::string name;
  int wire_bytes = 2;
};

/// An ordered list of attributes. Every node of a (homogeneous) network
/// contributes one tuple with one value per attribute (Sec. III).
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<AttributeDef> attributes);

  int num_attributes() const { return static_cast<int>(attributes_.size()); }
  const AttributeDef& attribute(int i) const { return attributes_[i]; }
  const std::vector<AttributeDef>& attributes() const { return attributes_; }

  /// Index of the attribute called `name`, or -1.
  int IndexOf(const std::string& name) const;

  bool Contains(const std::string& name) const { return IndexOf(name) >= 0; }

  /// Wire size of a projection onto the attribute indices in `indices`.
  int ProjectionWireBytes(const std::vector<int>& indices) const;

  /// A schema containing only the attributes at `indices`, in that order.
  Schema Project(const std::vector<int>& indices) const;

 private:
  std::vector<AttributeDef> attributes_;
};

}  // namespace sensjoin::data

#endif  // SENSJOIN_DATA_SCHEMA_H_
