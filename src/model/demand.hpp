// Request-rate matrices Lambda (Sec. II-A).
//
// lambda[m, k] is the mean arrival rate of requests from MU class m for
// content k during one slot. SbsDemand holds one SBS's matrix for one slot;
// SlotDemand stacks all SBSs; DemandTrace is the whole horizon.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/vec.hpp"
#include "model/network.hpp"

namespace mdo::model {

/// Dense M x K request-rate matrix for one SBS in one slot.
class SbsDemand {
 public:
  SbsDemand() = default;
  SbsDemand(std::size_t num_classes, std::size_t num_contents, double fill = 0.0);

  std::size_t num_classes() const { return num_classes_; }
  std::size_t num_contents() const { return num_contents_; }

  double& at(std::size_t m, std::size_t k);
  double at(std::size_t m, std::size_t k) const;

  /// Sum over classes of lambda[m, k]: total demand for content k.
  double content_total(std::size_t k) const;

  /// All K column sums in one O(M*K) pass; out is resized to
  /// num_contents(). Each column accumulates in ascending class order, so
  /// out[k] is bit-identical to content_total(k) — callers that previously
  /// called content_total inside a K-loop (O(M*K^2)) should use this.
  /// Templated over the output vector so both plain std::vector<double>
  /// and the aligned linalg::Vec callers work without a copy.
  template <class Vector>
  void content_totals_into(Vector& out) const {
    out.assign(num_contents_, 0.0);
    const double* row = lambda_.data();
    for (std::size_t m = 0; m < num_classes_; ++m, row += num_contents_) {
      for (std::size_t k = 0; k < num_contents_; ++k) out[k] += row[k];
    }
  }

  /// Sum of all entries.
  double total() const;

  /// Raw row-major storage (class-major, 64-byte aligned), e.g. for
  /// solvers.
  const linalg::Vec& data() const { return lambda_; }
  linalg::Vec& data() { return lambda_; }

 private:
  std::size_t num_classes_ = 0;
  std::size_t num_contents_ = 0;
  linalg::Vec lambda_;
};

/// All SBSs' demand matrices for one slot, indexed by SBS.
using SlotDemand = std::vector<SbsDemand>;

/// The full horizon of demand, indexed by slot then SBS.
class DemandTrace {
 public:
  DemandTrace() = default;
  explicit DemandTrace(std::vector<SlotDemand> slots);

  std::size_t horizon() const { return slots_.size(); }

  const SlotDemand& slot(std::size_t t) const;
  SlotDemand& slot(std::size_t t);

  void push_back(SlotDemand slot_demand);

  /// Drops every slot; controllers reuse one trace buffer per window.
  void clear() { slots_.clear(); }

  /// Sub-trace covering slots [begin, begin+len) (clamped to the horizon);
  /// used to hand prediction windows to the horizon solver.
  DemandTrace window(std::size_t begin, std::size_t len) const;

  /// Throws InvalidArgument if any slot's shape disagrees with the config
  /// or any rate is negative/non-finite.
  void validate(const NetworkConfig& config) const;

 private:
  std::vector<SlotDemand> slots_;
};

/// Builds a zero SlotDemand shaped after the config.
SlotDemand make_zero_slot_demand(const NetworkConfig& config);

}  // namespace mdo::model
