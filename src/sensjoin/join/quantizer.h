#ifndef SENSJOIN_JOIN_QUANTIZER_H_
#define SENSJOIN_JOIN_QUANTIZER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sensjoin/common/statusor.h"
#include "sensjoin/data/schema.h"
#include "sensjoin/query/interval.h"

namespace sensjoin::join {

/// Quantization of one join-attribute dimension: bounded range and
/// resolution (step size), Sec. V-B. These are environment properties fixed
/// at network setup and disseminated independently of queries.
struct DimensionSpec {
  std::string attr_name;
  int attr_index = -1;  ///< index into the network schema
  double min_val = 0.0;
  double max_val = 0.0;
  double resolution = 1.0;
};

/// Per-attribute quantization ranges for an environment.
struct AttrQuantization {
  double min_val = 0.0;
  double max_val = 0.0;
  double resolution = 1.0;
};

/// Maps attribute names to their quantization; the SENS-Join executor looks
/// up the query's join attributes here.
struct QuantizationConfig {
  std::map<std::string, AttrQuantization> by_attr;
};

/// Quantizes join-attribute tuples into a restricted, discrete,
/// n-dimensional space (Fig. 7). Each dimension gets
/// ceil((max-min)/resolution)+1 cells, rounded up to a power of two;
/// readings outside the range clamp to the boundary cells (which therefore
/// decode to half-open intervals toward +-infinity so the filter join never
/// produces false negatives).
class Quantizer {
 public:
  /// Builds a quantizer; dimensions keep the given order (which must be the
  /// canonical join-attribute order of the query). Fails on empty dims, a
  /// non-positive resolution, or max < min.
  static StatusOr<Quantizer> Create(std::vector<DimensionSpec> dims);

  /// Convenience: one dimension per entry of `attr_indices`, with ranges
  /// looked up in `config` by attribute name. Fails if an attribute has no
  /// configured quantization.
  static StatusOr<Quantizer> FromConfig(const data::Schema& schema,
                                        const std::vector<int>& attr_indices,
                                        const QuantizationConfig& config);

  int num_dims() const { return static_cast<int>(dims_.size()); }
  const DimensionSpec& dim(int i) const { return dims_[i]; }

  /// Number of cells in dimension `i` (a power of two).
  uint32_t size_of_dim(int i) const { return size_of_dim_[i]; }
  /// log2(size_of_dim(i)).
  int bits_per_dim(int i) const { return bits_per_dim_[i]; }
  const std::vector<int>& bits_per_dims() const { return bits_per_dim_; }
  /// Sum over dimensions of bits_per_dim.
  int total_bits() const { return total_bits_; }

  /// Cell coordinate of `value` in dimension `i`, clamped into range
  /// (EncodeTuple, Fig. 7 lines 10-15).
  uint32_t Coordinate(int i, double value) const;

  /// The interval of raw values that quantize into cell `c` of dimension
  /// `i`. Boundary cells extend to -/+infinity because out-of-range values
  /// clamp onto them.
  query::Interval CellInterval(int i, uint32_t c) const;

 private:
  explicit Quantizer(std::vector<DimensionSpec> dims);

  std::vector<DimensionSpec> dims_;
  std::vector<uint32_t> size_of_dim_;
  std::vector<int> bits_per_dim_;
  int total_bits_ = 0;
};

}  // namespace sensjoin::join

#endif  // SENSJOIN_JOIN_QUANTIZER_H_
