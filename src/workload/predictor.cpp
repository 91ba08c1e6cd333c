#include "workload/predictor.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace mdo::workload {

model::DemandTrace Predictor::predict_window(std::size_t tau,
                                             std::size_t length) const {
  model::DemandTrace out;
  predict_window_into(tau, length, out);
  return out;
}

void Predictor::predict_window_into(std::size_t tau, std::size_t length,
                                    model::DemandTrace& out) const {
  out.clear();
  for (std::size_t t = tau; t < tau + length && t < horizon(); ++t) {
    out.push_back(predict(tau, t));
  }
}

model::SparseSlotDemand Predictor::predict_sparse(std::size_t tau,
                                                  std::size_t t) const {
  const model::SlotDemand dense = predict(tau, t);
  model::SparseSlotDemand out;
  out.reserve(dense.size());
  for (const model::SbsDemand& demand : dense) {
    out.push_back(model::SparseSbsDemand::from_dense(demand));
  }
  return out;
}

model::SparseDemandTrace Predictor::predict_window_sparse(
    std::size_t tau, std::size_t length) const {
  model::SparseDemandTrace out;
  predict_window_sparse_into(tau, length, out);
  return out;
}

void Predictor::predict_window_sparse_into(
    std::size_t tau, std::size_t length, model::SparseDemandTrace& out) const {
  out.clear();
  for (std::size_t t = tau; t < tau + length && t < horizon(); ++t) {
    out.push_back(predict_sparse(tau, t));
  }
}

PerfectPredictor::PerfectPredictor(const model::DemandTrace& truth)
    : truth_(&truth) {}

PerfectPredictor::PerfectPredictor(const model::SparseDemandTrace& truth)
    : sparse_truth_(&truth) {}

model::SlotDemand PerfectPredictor::predict(std::size_t tau,
                                            std::size_t t) const {
  MDO_REQUIRE(tau <= t, "cannot predict the past");
  if (truth_ != nullptr) return truth_->slot(t);
  return model::SlotDemandView(sparse_truth_->slot(t)).to_dense();
}

model::SparseSlotDemand PerfectPredictor::predict_sparse(std::size_t tau,
                                                         std::size_t t) const {
  MDO_REQUIRE(tau <= t, "cannot predict the past");
  if (sparse_truth_ != nullptr) return sparse_truth_->slot(t);
  return Predictor::predict_sparse(tau, t);
}

std::size_t PerfectPredictor::horizon() const {
  return truth_ != nullptr ? truth_->horizon() : sparse_truth_->horizon();
}

namespace {

/// Largest N * K over the slots of a trace: the stream positions a
/// forecast can reach.
template <class Trace>
std::size_t widest_slot(const Trace& trace) {
  std::size_t widest = 0;
  for (std::size_t t = 0; t < trace.horizon(); ++t) {
    const auto& slot = trace.slot(t);
    if (!slot.empty()) {
      widest = std::max(widest, slot.size() * slot.front().num_contents());
    }
  }
  return widest;
}

/// Unit draws of the per-seed bias stream at positions [0, count).
std::vector<double> draw_bias_units(std::uint64_t seed, std::size_t count) {
  std::uint64_t mix = seed;
  (void)splitmix64(mix);
  Rng rng(splitmix64(mix));
  std::vector<double> units(count);
  for (double& u : units) u = rng.uniform();
  return units;
}

/// The per-(tau, t) jitter stream, at position 0.
Rng jitter_stream(std::uint64_t seed, std::size_t tau, std::size_t t) {
  std::uint64_t mix = seed;
  (void)splitmix64(mix);
  mix ^= 0x9e3779b97f4a7c15ULL * (tau + 1);
  (void)splitmix64(mix);
  mix ^= 0xc2b2ae3d27d4eb4fULL * (t + 1);
  return Rng(splitmix64(mix));
}

/// One noise factor from a bias unit draw and the next jitter draw; the
/// same arithmetic as Rng::uniform(lo, hi) on both streams.
double noise_factor(double eta_eff, double bias_unit, Rng& jitter) {
  const double lo = 1.0 - eta_eff;
  const double hi = 1.0 + eta_eff;
  const double bias = lo + (hi - lo) * bias_unit;
  const double jitter_factor =
      jitter.uniform(1.0 - 0.5 * eta_eff, 1.0 + 0.5 * eta_eff);
  return std::clamp(bias * jitter_factor, lo, hi);
}

}  // namespace

NoisyPredictor::NoisyPredictor(const model::DemandTrace& truth, double eta,
                               std::uint64_t seed, double lead_growth)
    : truth_(&truth), eta_(eta), lead_growth_(lead_growth), seed_(seed) {
  MDO_REQUIRE(eta >= 0.0 && eta < 1.0, "eta must be in [0, 1)");
  MDO_REQUIRE(lead_growth >= 0.0, "lead_growth must be non-negative");
  if (eta_ != 0.0) bias_units_ = draw_bias_units(seed_, widest_slot(truth));
}

NoisyPredictor::NoisyPredictor(const model::SparseDemandTrace& truth,
                               double eta, std::uint64_t seed,
                               double lead_growth)
    : sparse_truth_(&truth), eta_(eta), lead_growth_(lead_growth),
      seed_(seed) {
  MDO_REQUIRE(eta >= 0.0 && eta < 1.0, "eta must be in [0, 1)");
  MDO_REQUIRE(lead_growth >= 0.0, "lead_growth must be non-negative");
  if (eta_ != 0.0) bias_units_ = draw_bias_units(seed_, widest_slot(truth));
}

std::size_t NoisyPredictor::horizon() const {
  return truth_ != nullptr ? truth_->horizon() : sparse_truth_->horizon();
}

// The paper perturbs the *popularity* p(i) (eq. 49): one factor per
// content, shared by every MU class at the SBS (per-entry noise would
// average out across classes and underestimate the damage). The factor
// composes a persistent per-content misestimation (the bias stream: the
// forecaster's wrong popularity model) with query-time jitter (fresher
// forecasts differ from staler ones), clamped into the paper's
// [(1 - eta), (1 + eta)] band.
double NoisyPredictor::effective_eta(std::size_t tau, std::size_t t) const {
  const double lead = static_cast<double>(t - tau);
  return std::min(0.95, eta_ * (1.0 + lead_growth_ * lead));
}

model::SlotDemand NoisyPredictor::predict(std::size_t tau,
                                          std::size_t t) const {
  MDO_REQUIRE(tau <= t, "cannot predict the past");
  model::SlotDemand out =
      truth_ != nullptr ? truth_->slot(t)
                        : model::SlotDemandView(sparse_truth_->slot(t))
                              .to_dense();
  if (eta_ == 0.0 || out.empty()) return out;
  const std::size_t contents = out.front().num_contents();
  const double eta_eff = effective_eta(tau, t);
  Rng jitter = jitter_stream(seed_, tau, t);
  std::vector<double> factor(contents);
  for (std::size_t n = 0; n < out.size(); ++n) {
    const double* bias = bias_units_.data() + n * contents;
    for (std::size_t k = 0; k < contents; ++k) {
      factor[k] = noise_factor(eta_eff, bias[k], jitter);
    }
    auto& flat = out[n].data();
    for (std::size_t j = 0; j < flat.size(); ++j) {
      flat[j] *= factor[j % contents];
    }
  }
  return out;
}

model::SparseSlotDemand NoisyPredictor::predict_sparse(std::size_t tau,
                                                       std::size_t t) const {
  MDO_REQUIRE(tau <= t, "cannot predict the past");
  model::SparseSlotDemand out;
  if (sparse_truth_ != nullptr) {
    out = sparse_truth_->slot(t);
  } else {
    const model::SlotDemand& dense = truth_->slot(t);
    out.reserve(dense.size());
    for (const model::SbsDemand& demand : dense) {
      out.push_back(model::SparseSbsDemand::from_dense(demand));
    }
  }
  if (eta_ == 0.0 || out.empty()) return out;
  const std::size_t contents = out.front().num_contents();
  const double eta_eff = effective_eta(tau, t);
  // The factors predict() draws, taken only at each SBS's support: the
  // jitter stream skips the positions in between, and scaling only the
  // stored entries matches the dense loop because its skipped terms are
  // exact zeros (0 * f = 0). scale_by_content reads `factor` only at the
  // support, so entries left from an earlier SBS are never used.
  Rng jitter = jitter_stream(seed_, tau, t);
  std::size_t position = 0;  // next jitter stream position
  std::vector<double> factor(contents);
  for (std::size_t n = 0; n < out.size(); ++n) {
    const std::size_t base = n * contents;
    for (const std::size_t k : out[n].support()) {
      jitter.discard(base + k - position);
      factor[k] = noise_factor(eta_eff, bias_units_[base + k], jitter);
      position = base + k + 1;
    }
    out[n].scale_by_content(factor);
  }
  return out;
}

}  // namespace mdo::workload
