#ifndef DSPOT_TENSOR_ACTIVITY_TENSOR_H_
#define DSPOT_TENSOR_ACTIVITY_TENSOR_H_

#include <cassert>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "timeseries/series.h"

namespace dspot {

/// The 3rd-order activity tensor X of the paper: `d` keywords x `l`
/// locations x `n` time-ticks, where element (i, j, t) is the activity
/// volume of keyword i in location j at tick t. Missing observations are
/// NaN. Storage is dense, keyword-major then location-major, so a local
/// sequence x_ij occupies a contiguous range.
class ActivityTensor {
 public:
  ActivityTensor() : d_(0), l_(0), n_(0) {}

  /// A d x l x n tensor of zeros.
  ActivityTensor(size_t d, size_t l, size_t n)
      : d_(d), l_(l), n_(n), data_(d * l * n, 0.0) {
    keywords_.resize(d);
    locations_.resize(l);
    for (size_t i = 0; i < d; ++i) keywords_[i] = "kw" + std::to_string(i);
    for (size_t j = 0; j < l; ++j) locations_[j] = "loc" + std::to_string(j);
  }

  size_t num_keywords() const { return d_; }
  size_t num_locations() const { return l_; }
  size_t num_ticks() const { return n_; }
  bool empty() const { return data_.empty(); }

  double& at(size_t i, size_t j, size_t t) { return data_[Index(i, j, t)]; }
  double at(size_t i, size_t j, size_t t) const {
    return data_[Index(i, j, t)];
  }

  /// Human-readable labels (keyword names, country codes).
  const std::vector<std::string>& keywords() const { return keywords_; }
  const std::vector<std::string>& locations() const { return locations_; }
  Status SetKeywordName(size_t i, std::string name);
  Status SetLocationName(size_t j, std::string name);

  /// Index of the keyword/location with the given name; kNpos if absent.
  size_t KeywordIndex(const std::string& name) const;
  size_t LocationIndex(const std::string& name) const;

  /// Copy of the local sequence x_ij.
  Series LocalSequence(size_t i, size_t j) const;

  /// Zero-copy view of the local sequence x_ij (contiguous in storage).
  /// Invalidated by destruction of the tensor; never by reads.
  std::span<const double> LocalSequenceView(size_t i, size_t j) const {
    assert(i < d_ && j < l_);
    return std::span<const double>(data_.data() + Index(i, j, 0), n_);
  }

  /// Overwrites the local sequence x_ij (must have length n).
  Status SetLocalSequence(size_t i, size_t j, const Series& s);

  /// The global sequence of keyword i: elementwise sum over locations,
  /// skipping missing entries (a tick is missing only if missing in every
  /// location).
  Series GlobalSequence(size_t i) const;

  /// GlobalSequence into caller-owned storage (out.size() == n). Same
  /// floating-point sequence as GlobalSequence, allocation-free.
  void GlobalSequenceInto(size_t i, std::span<double> out) const;

  /// All d global sequences.
  std::vector<Series> GlobalSequences() const;

  /// Sum of all observed entries (sanity statistic).
  double TotalVolume() const;

  /// Total number of observed (non-missing) entries.
  size_t ObservedCount() const;

 private:
  size_t Index(size_t i, size_t j, size_t t) const {
    return (i * l_ + j) * n_ + t;
  }

  size_t d_;
  size_t l_;
  size_t n_;
  std::vector<double> data_;
  std::vector<std::string> keywords_;
  std::vector<std::string> locations_;
};

/// OK iff a d x l tensor whose last tick is `max_tick` can be sized:
/// max_tick + 1 and d * l * (max_tick + 1) neither overflow nor exceed
/// std::vector<double>().max_size(). Otherwise InvalidArgument
/// "<context>: tick <max_tick> is out of range: ...". The CSV loaders and
/// EventAggregator::Build check the ticks they read before sizing.
Status CheckTickExtent(size_t d, size_t l, size_t max_tick,
                       const std::string& context);

}  // namespace dspot

#endif  // DSPOT_TENSOR_ACTIVITY_TENSOR_H_
