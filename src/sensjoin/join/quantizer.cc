#include "sensjoin/join/quantizer.h"

#include <cmath>
#include <limits>
#include <utility>

#include "sensjoin/common/logging.h"

namespace sensjoin::join {
namespace {

/// Smallest power of two >= n (n >= 1).
uint32_t RoundUpToPowOf2(uint32_t n) {
  uint32_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

int Log2OfPow2(uint32_t p) {
  int bits = 0;
  while (p > 1) {
    p >>= 1;
    ++bits;
  }
  return bits;
}

}  // namespace

StatusOr<Quantizer> Quantizer::Create(std::vector<DimensionSpec> dims) {
  if (dims.empty()) {
    return Status::InvalidArgument("quantizer needs at least one dimension");
  }
  for (const DimensionSpec& d : dims) {
    if (d.resolution <= 0.0) {
      return Status::InvalidArgument("non-positive resolution for attribute " +
                                     d.attr_name);
    }
    if (d.max_val < d.min_val) {
      return Status::InvalidArgument("max < min for attribute " + d.attr_name);
    }
  }
  return Quantizer(std::move(dims));
}

StatusOr<Quantizer> Quantizer::FromConfig(const data::Schema& schema,
                                          const std::vector<int>& attr_indices,
                                          const QuantizationConfig& config) {
  std::vector<DimensionSpec> dims;
  dims.reserve(attr_indices.size());
  for (int idx : attr_indices) {
    if (idx < 0 || idx >= schema.num_attributes()) {
      return Status::InvalidArgument("attribute index out of range");
    }
    const std::string& name = schema.attribute(idx).name;
    auto it = config.by_attr.find(name);
    if (it == config.by_attr.end()) {
      return Status::NotFound("no quantization configured for attribute '" +
                              name + "'");
    }
    DimensionSpec d;
    d.attr_name = name;
    d.attr_index = idx;
    d.min_val = it->second.min_val;
    d.max_val = it->second.max_val;
    d.resolution = it->second.resolution;
    dims.push_back(std::move(d));
  }
  return Create(std::move(dims));
}

Quantizer::Quantizer(std::vector<DimensionSpec> dims)
    : dims_(std::move(dims)) {
  size_of_dim_.reserve(dims_.size());
  bits_per_dim_.reserve(dims_.size());
  for (const DimensionSpec& d : dims_) {
    // SizeOfDim = ceil((max - min) / resolution) + 1, rounded up to a power
    // of two (Fig. 7 lines 2-5).
    const double cells =
        std::ceil((d.max_val - d.min_val) / d.resolution) + 1.0;
    const uint32_t size = RoundUpToPowOf2(static_cast<uint32_t>(cells));
    size_of_dim_.push_back(size);
    bits_per_dim_.push_back(Log2OfPow2(size));
    total_bits_ += bits_per_dim_.back();
  }
}

uint32_t Quantizer::Coordinate(int i, double value) const {
  const DimensionSpec& d = dims_[i];
  double p = std::ceil((value - d.min_val) / d.resolution);
  if (p < 0.0) p = 0.0;
  const uint32_t size = size_of_dim_[i];
  uint32_t c = static_cast<uint32_t>(p);
  if (p >= static_cast<double>(size)) c = size - 1;
  return c;
}

query::Interval Quantizer::CellInterval(int i, uint32_t c) const {
  const DimensionSpec& d = dims_[i];
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Coordinate() uses ceil((v - min)/res), so cell c holds raw values in
  // (min + (c-1)*res, min + c*res]; we widen to the closed interval.
  double lo = d.min_val + (static_cast<double>(c) - 1.0) * d.resolution;
  double hi = d.min_val + static_cast<double>(c) * d.resolution;
  if (c == 0) lo = -kInf;                       // clamped from below
  if (c == size_of_dim_[i] - 1) hi = kInf;      // clamped from above
  return {lo, hi};
}

}  // namespace sensjoin::join
