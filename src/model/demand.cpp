#include "model/demand.hpp"

#include <cmath>

#include "util/error.hpp"

namespace mdo::model {

SbsDemand::SbsDemand(std::size_t num_classes, std::size_t num_contents,
                     double fill)
    : num_classes_(num_classes),
      num_contents_(num_contents),
      lambda_(num_classes * num_contents, fill) {}

double& SbsDemand::at(std::size_t m, std::size_t k) {
  MDO_REQUIRE(m < num_classes_ && k < num_contents_,
              "demand index out of range");
  return lambda_[m * num_contents_ + k];
}

double SbsDemand::at(std::size_t m, std::size_t k) const {
  MDO_REQUIRE(m < num_classes_ && k < num_contents_,
              "demand index out of range");
  return lambda_[m * num_contents_ + k];
}

double SbsDemand::content_total(std::size_t k) const {
  MDO_REQUIRE(k < num_contents_, "content index out of range");
  double acc = 0.0;
  for (std::size_t m = 0; m < num_classes_; ++m)
    acc += lambda_[m * num_contents_ + k];
  return acc;
}

double SbsDemand::total() const {
  double acc = 0.0;
  for (const double v : lambda_) acc += v;
  return acc;
}

DemandTrace::DemandTrace(std::vector<SlotDemand> slots)
    : slots_(std::move(slots)) {}

const SlotDemand& DemandTrace::slot(std::size_t t) const {
  MDO_REQUIRE(t < slots_.size(), "slot index out of range");
  return slots_[t];
}

SlotDemand& DemandTrace::slot(std::size_t t) {
  MDO_REQUIRE(t < slots_.size(), "slot index out of range");
  return slots_[t];
}

void DemandTrace::push_back(SlotDemand slot_demand) {
  slots_.push_back(std::move(slot_demand));
}

DemandTrace DemandTrace::window(std::size_t begin, std::size_t len) const {
  DemandTrace out;
  for (std::size_t t = begin; t < begin + len && t < slots_.size(); ++t) {
    out.push_back(slots_[t]);
  }
  return out;
}

void DemandTrace::validate(const NetworkConfig& config) const {
  for (std::size_t t = 0; t < slots_.size(); ++t) {
    const auto& slot_demand = slots_[t];
    MDO_REQUIRE(slot_demand.size() == config.num_sbs(),
                "slot " + std::to_string(t) + ": SBS count mismatch");
    for (std::size_t n = 0; n < slot_demand.size(); ++n) {
      const auto& d = slot_demand[n];
      MDO_REQUIRE(d.num_classes() == config.sbs[n].num_classes(),
                  "slot " + std::to_string(t) + ": class count mismatch");
      MDO_REQUIRE(d.num_contents() == config.num_contents,
                  "slot " + std::to_string(t) + ": content count mismatch");
      for (const double v : d.data()) {
        MDO_REQUIRE(std::isfinite(v) && v >= 0.0,
                    "slot " + std::to_string(t) + ": invalid rate");
      }
    }
  }
}

SlotDemand make_zero_slot_demand(const NetworkConfig& config) {
  SlotDemand out;
  out.reserve(config.num_sbs());
  for (const auto& s : config.sbs) {
    out.emplace_back(s.num_classes(), config.num_contents, 0.0);
  }
  return out;
}

}  // namespace mdo::model
