#include "online/fhc.hpp"

#include "util/error.hpp"

namespace mdo::online {

FhcController::FhcController(std::size_t window, std::size_t commit,
                             std::size_t offset,
                             core::PrimalDualOptions options)
    : window_(window),
      commit_(commit),
      offset_(offset),
      solver_(options),
      planner_(offset, window, commit) {}

std::string FhcController::name() const {
  return "FHC(w=" + std::to_string(window_) + ",r=" + std::to_string(commit_) +
         ",v=" + std::to_string(offset_) + ")";
}

void FhcController::reset(const model::ProblemInstance& instance) {
  planner_.reset(instance);
}

model::SlotDecision FhcController::decide(const DecisionContext& ctx) {
  MDO_REQUIRE(ctx.predictor != nullptr, "FHC needs a predictor");
  return planner_.action(ctx.slot, solver_, *ctx.predictor, ctx.deadline,
                         ctx.supervision);
}

void FhcController::resync(std::size_t slot,
                           const model::SlotDecision& executed) {
  planner_.resync(slot, executed.cache);
}

}  // namespace mdo::online
