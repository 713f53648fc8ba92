#include "core/params.h"

#include <sstream>

namespace dspot {

std::vector<size_t> ModelParamSet::ShockIndicesFor(size_t keyword) const {
  std::vector<size_t> out;
  for (size_t k = 0; k < shocks.size(); ++k) {
    if (shocks[k].keyword == keyword) {
      out.push_back(k);
    }
  }
  return out;
}

size_t ModelParamSet::ShockCountFor(size_t keyword) const {
  size_t count = 0;
  for (const Shock& s : shocks) {
    if (s.keyword == keyword) ++count;
  }
  return count;
}

KeywordModel ModelParamSet::KeywordModelFor(size_t keyword) const {
  KeywordModel model;
  model.params = global[keyword];
  for (const Shock& shock : shocks) {
    if (shock.keyword == keyword) model.shocks.push_back(shock);
  }
  model.fit_ticks = num_ticks;
  return model;
}

std::string ModelParamSet::ToString() const {
  std::ostringstream os;
  os << "ModelParamSet(d=" << num_keywords << ", l=" << num_locations
     << ", n=" << num_ticks << ")\n";
  for (size_t i = 0; i < global.size(); ++i) {
    const KeywordGlobalParams& g = global[i];
    os << "  kw" << i << ": N=" << g.population << " beta=" << g.beta
       << " delta=" << g.delta << " gamma=" << g.gamma;
    if (g.has_growth()) {
      os << " eta0=" << g.growth_rate << " t_eta=" << g.growth_start;
    }
    os << " shocks=" << ShockCountFor(i) << "\n";
  }
  return os.str();
}

}  // namespace dspot
