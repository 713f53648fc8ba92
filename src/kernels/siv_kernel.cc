#include "kernels/siv_kernel.h"

#include "kernels/dspot_simd.h"

namespace dspot {
namespace kernels {

void SimulateSivScalarInto(const SivParams& params,
                           std::span<const double> epsilon,
                           std::span<const double> eta,
                           std::span<double> out) {
  SimulateSivT<double>(params.population, params.beta, params.delta,
                       params.gamma, params.i0, epsilon, eta, out);
}

SivState SivInitialState(const SivParams& params) {
  return SivInitialStateT<double>(params.population, params.i0);
}

void ResumeSivScalarInto(const SivParams& params,
                         std::span<const double> epsilon,
                         std::span<const double> eta, SivState* state,
                         std::span<double> out) {
  AdvanceSivT<double>(params.beta, params.delta, params.gamma, epsilon, eta,
                      state, out);
}

void SivJacobianInto(const SivParams& params, std::span<const double> epsilon,
                     std::span<const double> eta,
                     std::span<const size_t> observed, size_t n_ticks,
                     double* jac, size_t row_stride) {
  using D = Dual<kSivNumParams>;
  const D population = D::Var(params.population, 0);
  const D beta = D::Var(params.beta, 1);
  const D delta = D::Var(params.delta, 2);
  const D gamma = D::Var(params.gamma, 3);
  const D i0 = D::Var(params.i0, 4);

  // Same recurrence as SimulateSivT, but without materializing a Dual
  // trajectory buffer: observed indices are sorted ascending in every
  // caller (they are built by a forward scan over the data), so gradient
  // rows are emitted in-stride as the simulation passes each index.
  const D n = TMax(population, D(1e-9));
  D i = TClamp(i0, D(0.0), n);
  D s = n - i;
  D v = D(0.0);
  const D delta_c = TClamp(delta, D(0.0), D(1.0));
  const D gamma_c = TClamp(gamma, D(0.0), D(1.0));

  size_t next = 0;
  for (size_t t = 0; t < n_ticks && next < observed.size(); ++t) {
    while (next < observed.size() && observed[next] == t) {
      double* row = jac + next * row_stride;
      for (size_t p = 0; p < kSivNumParams; ++p) row[p] = i.d[p];
      ++next;
    }

    const double eps = t < epsilon.size() ? epsilon[t] : 1.0;
    const double eta_t = t < eta.size() ? eta[t] : 0.0;
    const D raw_infect = beta * (s / n) * D(eps) * i * D(1.0 + eta_t);
    const D infect = TClamp(raw_infect, D(0.0), s);
    const D recover = delta_c * i;
    const D wane = gamma_c * v;

    s += wane - infect;
    i += infect - recover;
    v += recover - wane;
  }
}

namespace {

using simd::VecD;

// --- fused normal equations ----------------------------------------------

/// The derivative part of one Dual<5> value, padded to whole SIMD vectors.
/// Pad lanes start at zero and are never read back.
constexpr size_t kGradChunks =
    (kSivNumParams + simd::kNumLanes - 1) / simd::kNumLanes;
constexpr size_t kGradWidth = kGradChunks * simd::kNumLanes;

struct Grad {
  VecD c[kGradChunks];

  static Grad Zero() {
    Grad g;
    for (VecD& x : g.c) x = VecD::Zero();
    return g;
  }
  /// d/d(param `slot`) = 1: the seed of Dual::Var.
  static Grad Unit(size_t slot) {
    alignas(64) double lanes[kGradWidth] = {};
    lanes[slot] = 1.0;
    Grad g;
    for (size_t k = 0; k < kGradChunks; ++k) {
      g.c[k] = VecD::Load(lanes + k * simd::kNumLanes);
    }
    return g;
  }
};

/// A Dual<5> as value plus Grad. The helpers below are Dual's operators
/// with the same operands in the same order, so every lane reproduces the
/// matching Dual derivative bit for bit.
struct TangentValue {
  double v;
  Grad d;
};

TangentValue Sub(const TangentValue& a, const TangentValue& b) {
  TangentValue r{a.v - b.v, {}};
  for (size_t k = 0; k < kGradChunks; ++k) r.d.c[k] = a.d.c[k] - b.d.c[k];
  return r;
}

void AddTo(TangentValue* a, const TangentValue& b) {
  a->v += b.v;
  for (size_t k = 0; k < kGradChunks; ++k) a->d.c[k] = a->d.c[k] + b.d.c[k];
}

/// a * b for two variables: d = a.d * b.v + a.v * b.d.
TangentValue Mul(const TangentValue& a, const TangentValue& b) {
  TangentValue r{a.v * b.v, {}};
  const VecD av = VecD::Splat(a.v);
  const VecD bv = VecD::Splat(b.v);
  for (size_t k = 0; k < kGradChunks; ++k) {
    r.d.c[k] = a.d.c[k] * bv + av * b.d.c[k];
  }
  return r;
}

/// a * Dual(c) for a constant c: Dual still adds a.v * (d of c = 0.0).
TangentValue MulConst(const TangentValue& a, double c) {
  TangentValue r{a.v * c, {}};
  const VecD cv = VecD::Splat(c);
  const VecD zero_term = VecD::Splat(a.v * 0.0);
  for (size_t k = 0; k < kGradChunks; ++k) {
    r.d.c[k] = a.d.c[k] * cv + zero_term;
  }
  return r;
}

/// a / b: d = (a.d * b.v - a.v * b.d) * (1 / (b.v * b.v)).
TangentValue Div(const TangentValue& a, const TangentValue& b) {
  TangentValue r{a.v / b.v, {}};
  const VecD inv_b2 = VecD::Splat(1.0 / (b.v * b.v));
  const VecD av = VecD::Splat(a.v);
  const VecD bv = VecD::Splat(b.v);
  for (size_t k = 0; k < kGradChunks; ++k) {
    r.d.c[k] = (a.d.c[k] * bv - av * b.d.c[k]) * inv_b2;
  }
  return r;
}

/// TClamp over Duals: selects by value and keeps the chosen operand's
/// derivatives.
TangentValue Clamp(const TangentValue& x, const TangentValue& lo,
                   const TangentValue& hi) {
  return x.v < lo.v ? lo : (hi.v < x.v ? hi : x);
}

TangentValue Constant(double v) { return {v, Grad::Zero()}; }
TangentValue Variable(double v, size_t slot) { return {v, Grad::Unit(slot)}; }

}  // namespace

void SivNormalEquationsInto(const SivParams& params,
                            std::span<const double> epsilon,
                            std::span<const double> eta,
                            std::span<const size_t> observed,
                            std::span<const double> residuals, size_t n_ticks,
                            double* jtj, double* jtr) {
  // SivJacobianInto's Dual<5> pass, statement for statement.
  const TangentValue population = Variable(params.population, 0);
  const TangentValue beta = Variable(params.beta, 1);
  const TangentValue delta = Variable(params.delta, 2);
  const TangentValue gamma = Variable(params.gamma, 3);
  const TangentValue i0 = Variable(params.i0, 4);
  const TangentValue zero = Constant(0.0);
  const TangentValue one = Constant(1.0);

  const TangentValue floor = Constant(1e-9);
  const TangentValue n = population.v < floor.v ? floor : population;
  TangentValue i = Clamp(i0, zero, n);
  TangentValue s = Sub(n, i);
  TangentValue v = zero;
  const TangentValue delta_c = Clamp(delta, zero, one);
  const TangentValue gamma_c = Clamp(gamma, zero, one);

  // Row p of J^T J accumulates a_p * row over the rows with a_p != 0 (the
  // GramInto skip); J^T r accumulates row * r_k over r_k != 0.
  Grad gram[kSivNumParams];
  for (Grad& g : gram) g = Grad::Zero();
  Grad grad_r = Grad::Zero();
  alignas(64) double row[kGradWidth];

  size_t next = 0;
  for (size_t t = 0; t < n_ticks && next < observed.size(); ++t) {
    while (next < observed.size() && observed[next] == t) {
      for (size_t k = 0; k < kGradChunks; ++k) {
        i.d.c[k].Store(row + k * simd::kNumLanes);
      }
      for (size_t p = 0; p < kSivNumParams; ++p) {
        if (row[p] == 0.0) continue;
        const VecD a = VecD::Splat(row[p]);
        for (size_t k = 0; k < kGradChunks; ++k) {
          gram[p].c[k] = gram[p].c[k] + a * i.d.c[k];
        }
      }
      const double r = residuals[next];
      if (r != 0.0) {
        const VecD rv = VecD::Splat(r);
        for (size_t k = 0; k < kGradChunks; ++k) {
          grad_r.c[k] = grad_r.c[k] + i.d.c[k] * rv;
        }
      }
      ++next;
    }

    const double eps = t < epsilon.size() ? epsilon[t] : 1.0;
    const double eta_t = t < eta.size() ? eta[t] : 0.0;
    const TangentValue raw_infect =
        MulConst(Mul(MulConst(Mul(beta, Div(s, n)), eps), i), 1.0 + eta_t);
    const TangentValue infect = Clamp(raw_infect, zero, s);
    const TangentValue recover = Mul(delta_c, i);
    const TangentValue wane = Mul(gamma_c, v);

    AddTo(&s, Sub(wane, infect));
    AddTo(&i, Sub(infect, recover));
    AddTo(&v, Sub(recover, wane));
  }

  alignas(64) double lanes[kGradWidth];
  for (size_t p = 0; p < kSivNumParams; ++p) {
    for (size_t k = 0; k < kGradChunks; ++k) {
      gram[p].c[k].Store(lanes + k * simd::kNumLanes);
    }
    for (size_t q = 0; q < kSivNumParams; ++q) {
      // GramInto fills the upper triangle and mirrors it.
      jtj[p * kSivNumParams + q] =
          q >= p ? lanes[q] : jtj[q * kSivNumParams + p];
    }
  }
  for (size_t k = 0; k < kGradChunks; ++k) {
    grad_r.c[k].Store(lanes + k * simd::kNumLanes);
  }
  for (size_t p = 0; p < kSivNumParams; ++p) jtr[p] = lanes[p];
}

namespace {

// --- SoA batch ------------------------------------------------------------

/// Recurrence state of one vector of lanes.
struct LaneState {
  VecD n, s, i, v;
};

/// Reads and writes whole vectors of kNumLanes lanes.
struct WholeVector {
  VecD Load(const double* p) const { return VecD::Load(p); }
  void Store(VecD x, double* p) const { x.Store(p); }
};

/// Reads and writes the first `lanes` lanes of a vector in place and
/// touches no memory past them: loads repeat the last lane in the pad
/// lanes, stores drop the pad lanes.
struct PartialVector {
  size_t lanes;
  VecD Load(const double* p) const { return VecD::LoadFirst(p, lanes); }
  void Store(VecD x, double* p) const { x.StoreFirst(p, lanes); }
};

/// The batch recurrence for the vector of lanes starting at `l`: n_steps
/// ticks, reading and writing its lanes of every array through `access`
/// (row t of the schedules and the output at t * count + l). Each lane
/// performs SimulateSivScalarInto's operation sequence; Min/Max pick the
/// same operands std::max/std::clamp pick for finite inputs. `start(load)`
/// gives the starting LaneState, reading per-lane inputs through
/// `load(array)`. Stores the final s/i/v when `end` is non-null.
template <typename Access, typename StartFn>
void AdvanceLanes(const Access& access, const SivBatchSoA& batch,
                  size_t count, size_t l, size_t n_steps, double* out,
                  const SivBatchState* end, const StartFn& start) {
  const auto load = [&](const double* p) { return access.Load(p + l); };
  const VecD zero = VecD::Zero();
  const VecD one = VecD::Splat(1.0);
  const VecD delta = Min(Max(load(batch.delta), zero), one);
  const VecD gamma = Min(Max(load(batch.gamma), zero), one);
  const VecD beta = load(batch.beta);
  const LaneState st = start(load);
  const VecD n = st.n;
  VecD s = st.s;
  VecD i = st.i;
  VecD v = st.v;

  for (size_t t = 0; t < n_steps; ++t) {
    const size_t at = t * count + l;
    access.Store(i, out + at);

    const VecD eps = batch.epsilon ? access.Load(batch.epsilon + at) : one;
    const VecD eta_t = batch.eta ? access.Load(batch.eta + at) : zero;
    const VecD raw_infect = beta * (s / n) * eps * i * (one + eta_t);
    const VecD infect = Min(Max(raw_infect, zero), s);
    const VecD recover = delta * i;
    const VecD wane = gamma * v;

    s = s + (wane - infect);
    i = i + (infect - recover);
    v = v + (recover - wane);
  }
  if (end != nullptr) {
    access.Store(s, end->s + l);
    access.Store(i, end->i + l);
    access.Store(v, end->v + l);
  }
}

/// Runs every lane of a batch: whole vectors, then the count % kNumLanes
/// remainder lanes as one more vector read and written in place through
/// partial loads and stores, which costs about one scalar run at any
/// width. In place, not through a padded copy: a copy's vector loads read
/// lanes stored just before, and its cost switched between about 1.3 and
/// 1.7 scalar runs from one process to the next.
template <typename StartFn>
void RunBatch(const SivBatchSoA& batch, size_t count, size_t n_steps,
              double* out, const SivBatchState* end, const StartFn& start) {
  const size_t vec_end = count - (count % simd::kNumLanes);
  for (size_t l = 0; l < vec_end; l += simd::kNumLanes) {
    AdvanceLanes(WholeVector{}, batch, count, l, n_steps, out, end, start);
  }
  if (vec_end < count) {
    AdvanceLanes(PartialVector{count - vec_end}, batch, count, vec_end,
                 n_steps, out, end, start);
  }
}

}  // namespace

void SimulateSivBatchInto(const SivBatchSoA& batch, size_t count,
                          size_t n_ticks, double* out) {
  // Per-lane setup mirrors SivInitialStateT: n = max(pop, 1e-9),
  // i = clamp(i0, 0, n), s = n - i, v = 0.
  RunBatch(batch, count, n_ticks, out, nullptr, [&](const auto& load) {
    const VecD n = Max(load(batch.population), VecD::Splat(1e-9));
    const VecD i = Min(Max(load(batch.i0), VecD::Zero()), n);
    return LaneState{n, n - i, i, VecD::Zero()};
  });
}

void ResumeSivBatchInto(const SivBatchSoA& batch, const SivBatchState& state,
                        size_t count, size_t n_steps, double* out) {
  RunBatch(batch, count, n_steps, out, &state, [&](const auto& load) {
    return LaneState{load(state.n), load(state.s), load(state.i),
                     load(state.v)};
  });
}

}  // namespace kernels
}  // namespace dspot
