#include "tensor/activity_tensor.h"

#include <unistd.h>

namespace dspot {

namespace {

/// The host's physical memory in bytes, or 0 when sysconf cannot tell.
size_t PhysicalMemoryBytes() {
  const long pages = sysconf(_SC_PHYS_PAGES);
  const long page_size = sysconf(_SC_PAGESIZE);
  if (pages <= 0 || page_size <= 0) return 0;
  return static_cast<size_t>(pages) * static_cast<size_t>(page_size);
}

}  // namespace

Status CheckTickExtent(size_t d, size_t l, size_t max_tick,
                       const std::string& context) {
  const auto out_of_range = [&](const std::string& limit) {
    return Status::InvalidArgument(
        context + ": tick " + std::to_string(max_tick) + " is out of range: " +
        std::to_string(d) + " x " + std::to_string(l) + " x (" +
        std::to_string(max_tick) + " + 1) cells exceed " + limit);
  };
  const size_t max_cells = std::vector<double>().max_size();
  size_t cells = 0;
  // max_tick < max_cells keeps max_tick + 1 from wrapping.
  if (max_tick >= max_cells || __builtin_mul_overflow(d, l, &cells) ||
      __builtin_mul_overflow(cells, max_tick + 1, &cells) ||
      cells > max_cells) {
    return out_of_range("the largest tensor");
  }
  const size_t memory = PhysicalMemoryBytes();
  if (memory > 0 && cells > memory / sizeof(double)) {
    return out_of_range("the host's " + std::to_string(memory) +
                        " bytes of physical memory at 8 bytes each");
  }
  return Status::Ok();
}

Status ActivityTensor::SetKeywordName(size_t i, std::string name) {
  if (i >= d_) {
    return Status::OutOfRange("keyword index out of range");
  }
  keywords_[i] = std::move(name);
  return Status::Ok();
}

Status ActivityTensor::SetLocationName(size_t j, std::string name) {
  if (j >= l_) {
    return Status::OutOfRange("location index out of range");
  }
  locations_[j] = std::move(name);
  return Status::Ok();
}

size_t ActivityTensor::KeywordIndex(const std::string& name) const {
  for (size_t i = 0; i < d_; ++i) {
    if (keywords_[i] == name) return i;
  }
  return kNpos;
}

size_t ActivityTensor::LocationIndex(const std::string& name) const {
  for (size_t j = 0; j < l_; ++j) {
    if (locations_[j] == name) return j;
  }
  return kNpos;
}

Series ActivityTensor::LocalSequence(size_t i, size_t j) const {
  Series s(n_);
  for (size_t t = 0; t < n_; ++t) {
    s[t] = at(i, j, t);
  }
  return s;
}

Status ActivityTensor::SetLocalSequence(size_t i, size_t j, const Series& s) {
  if (i >= d_ || j >= l_) {
    return Status::OutOfRange("tensor index out of range");
  }
  if (s.size() != n_) {
    return Status::InvalidArgument("sequence length does not match tensor n");
  }
  for (size_t t = 0; t < n_; ++t) {
    at(i, j, t) = s[t];
  }
  return Status::Ok();
}

Series ActivityTensor::GlobalSequence(size_t i) const {
  Series out(n_);
  GlobalSequenceInto(i, out.mutable_values());
  return out;
}

void ActivityTensor::GlobalSequenceInto(size_t i, std::span<double> out) const {
  assert(out.size() == n_);
  for (size_t t = 0; t < n_; ++t) {
    double sum = 0.0;
    bool any = false;
    for (size_t j = 0; j < l_; ++j) {
      const double v = at(i, j, t);
      if (!IsMissing(v)) {
        sum += v;
        any = true;
      }
    }
    out[t] = any ? sum : kMissingValue;
  }
}

std::vector<Series> ActivityTensor::GlobalSequences() const {
  std::vector<Series> out;
  out.reserve(d_);
  for (size_t i = 0; i < d_; ++i) {
    out.push_back(GlobalSequence(i));
  }
  return out;
}

double ActivityTensor::TotalVolume() const {
  double sum = 0.0;
  for (double v : data_) {
    if (!IsMissing(v)) sum += v;
  }
  return sum;
}

size_t ActivityTensor::ObservedCount() const {
  size_t count = 0;
  for (double v : data_) {
    if (!IsMissing(v)) ++count;
  }
  return count;
}

}  // namespace dspot
