// Deterministic mutation fuzz for the binary decoders — the snapshot of a
// solver-driven controller (CHC's committed window-solve plans, decoded by
// ChcController::restore_state) and the simulator's checkpoint payload
// (sim::Simulator resume: run header, records, supervision log, predictor
// and controller state) — plus the window solver's robustness against the
// demand rates such corruption produces.
//
// Every mutant of a valid payload — one bit flipped per byte, a truncation
// at every length, and every small 8-byte little-endian window (a superset
// of the count and dimension fields) inflated — must either be rejected
// with InvalidArgument or decode into an object that the following
// decide() handles; no other exception, hang or memory error is allowed. A
// mutated checkpoint payload is framed with a fresh checksum so that the
// payload decoders, not the file checksum, see it; the resumed run must
// either fall back to a cold start or resume, and in both cases play the
// full horizon. The rate mutants flip every bit, and set every value of
// the top byte, of every stored demand rate in memory: validate() may
// refuse the trace, and a mutated exponent can leave a finite rate so large
// that the flow solver reports SolverError, but otherwise solve() must
// return a full-length schedule.
// In the sanitizer build any out-of-bounds access fails the run.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <initializer_list>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/primal_dual.hpp"
#include "online/chc.hpp"
#include "online/robust_controller.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/supervisor.hpp"
#include "sim/fault_injector.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/serialize.hpp"
#include "util/thread_pool.hpp"
#include "workload/predictor.hpp"
#include "workload/scenario.hpp"

namespace mdo {
namespace {

using Bytes = std::vector<std::uint8_t>;

std::uint64_t load_u64(const Bytes& bytes, std::size_t at) {
  std::uint64_t value = 0;
  for (std::size_t b = 0; b < 8; ++b) {
    value |= static_cast<std::uint64_t>(bytes[at + b]) << (8 * b);
  }
  return value;
}

void store_u64(Bytes& bytes, std::size_t at, std::uint64_t value) {
  for (std::size_t b = 0; b < 8; ++b) {
    bytes[at + b] = static_cast<std::uint8_t>(value >> (8 * b));
  }
}

/// The three mutation families (see the file comment).
enum class Mutation { kFlip, kTruncate, kInflate };

void PrintTo(Mutation family, std::ostream* os) {
  constexpr const char* kNames[] = {"flip", "truncate", "inflate"};
  *os << kNames[static_cast<int>(family)];
}

/// Calls fn(mutant, label) for every mutant of `payload` in `family`.
template <class Fn>
void for_each_mutant(const Bytes& payload, Mutation family, Fn&& fn) {
  Bytes mutant;
  if (family == Mutation::kFlip) {
    for (std::size_t i = 0; i < payload.size(); ++i) {
      mutant = payload;
      mutant[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
      fn(mutant, "flip@" + std::to_string(i));
    }
  } else if (family == Mutation::kTruncate) {
    for (std::size_t length = 0; length < payload.size(); ++length) {
      mutant.assign(payload.begin(),
                    payload.begin() + static_cast<std::ptrdiff_t>(length));
      fn(mutant, "truncate@" + std::to_string(length));
    }
  } else {
    for (std::size_t i = 0; i + 8 <= payload.size(); ++i) {
      const std::uint64_t value = load_u64(payload, i);
      if (value >= (std::uint64_t{1} << 32)) continue;  // not a count field
      const std::uint64_t remaining = payload.size() - i - 8;
      for (const std::uint64_t inflated :
           {value + 1, remaining + 1, std::uint64_t{1} << 32,
            ~std::uint64_t{0}}) {
        mutant = payload;
        store_u64(mutant, i, inflated);
        fn(mutant, "inflate@" + std::to_string(i) + "=" +
                       std::to_string(inflated));
      }
    }
  }
}

/// Calls fn(mutant, label) for every mutant of `payload`, all families.
template <class Fn>
void for_each_mutant(const Bytes& payload, Fn&& fn) {
  for (const Mutation family :
       {Mutation::kFlip, Mutation::kTruncate, Mutation::kInflate}) {
    for_each_mutant(payload, family, fn);
  }
}

/// A small truncated-Zipf sparse instance: the stored rows are a strict
/// subset of the catalogue.
model::ProblemInstance fuzz_instance() {
  workload::PaperScenario scenario;
  scenario.num_sbs = 2;
  scenario.num_contents = 8;
  scenario.classes_per_sbs = 2;
  scenario.horizon = 4;
  scenario.cache_capacity = 2;
  scenario.bandwidth = 4.0;
  scenario.beta = 2.0;
  scenario.seed = 11;
  scenario.workload.min_rate = 0.05;
  return scenario.build_sparse();
}

/// The follow-up solves are thousands of tiny windows; the pool's per-batch
/// dispatch would dominate them, and the decoders are the subject here.
void use_one_thread() { util::ThreadPool::set_global_threads(1); }

core::PrimalDualOptions fuzz_options() {
  core::PrimalDualOptions options;
  options.max_iterations = 2;
  return options;
}

struct Tally {
  std::size_t rejected = 0;  // decoder threw InvalidArgument
  std::size_t accepted = 0;  // decoded, and the follow-up call handled it
};

/// Copy of `trace` with its `index`-th stored rate XORed bitwise with
/// `mask`, counting rates in (slot, SBS, class, content) order.
model::SparseDemandTrace with_rate_mutated(
    const model::SparseDemandTrace& trace, std::size_t index,
    std::uint64_t mask) {
  model::SparseDemandTrace out;
  std::size_t at = 0;
  for (std::size_t t = 0; t < trace.horizon(); ++t) {
    model::SparseSlotDemand slot;
    for (const model::SparseSbsDemand& cell : trace.slot(t)) {
      model::SparseSbsDemand copy(cell.num_classes(), cell.num_contents());
      for (std::size_t m = 0; m < cell.num_classes(); ++m) {
        for (const model::DemandEntry* it = cell.row_begin(m);
             it != cell.row_end(m); ++it, ++at) {
          double rate = it->rate;
          if (at == index) {
            rate = std::bit_cast<double>(std::bit_cast<std::uint64_t>(rate) ^
                                         mask);
          }
          copy.append(m, it->content, rate);
        }
      }
      copy.finalize();
      slot.push_back(std::move(copy));
    }
    out.push_back(std::move(slot));
  }
  return out;
}

TEST(DecoderFuzz, SparseTraceRateMutants) {
  use_one_thread();
  const auto instance = fuzz_instance();

  std::vector<double> rates;  // in with_rate_mutated's order
  for (std::size_t t = 0; t < instance.sparse_demand.horizon(); ++t) {
    for (const model::SparseSbsDemand& cell : instance.sparse_demand.slot(t)) {
      for (std::size_t m = 0; m < cell.num_classes(); ++m) {
        for (const model::DemandEntry* it = cell.row_begin(m);
             it != cell.row_end(m); ++it) {
          rates.push_back(it->rate);
        }
      }
    }
  }

  std::size_t refused = 0;  // validate() threw InvalidArgument
  std::size_t solved = 0;   // solve() returned, or reported SolverError
  const auto check = [&](std::size_t index, std::uint64_t mask) {
    const model::SparseDemandTrace trace =
        with_rate_mutated(instance.sparse_demand, index, mask);
    const std::string label =
        "rate " + std::to_string(index) + " xor " + std::to_string(mask);
    try {
      trace.validate(instance.config);
    } catch (const InvalidArgument&) {
      ++refused;
      return;
    }
    core::HorizonProblem problem;
    problem.config = &instance.config;
    problem.sparse_demand = &trace;
    problem.initial_cache = instance.initial_cache;
    ++solved;
    try {
      core::PrimalDualSolver solver(fuzz_options());
      const core::HorizonSolution solution = solver.solve(problem);
      EXPECT_EQ(solution.schedule.size(), trace.horizon()) << label;
    } catch (const SolverError&) {
      // Numerical breakdown at an absurd but finite demand scale.
    } catch (const std::exception& e) {
      ADD_FAILURE() << label << ": solve threw " << e.what();
    }
  };
  for (std::size_t index = 0; index < rates.size(); ++index) {
    // Every single bit flip, then every value of the top byte (sign and
    // high exponent bits): scales of 2^(16 j) in both directions, signed
    // rates and non-finite patterns.
    for (unsigned bit = 0; bit < 64; ++bit) {
      check(index, std::uint64_t{1} << bit);
    }
    const std::uint64_t top = std::bit_cast<std::uint64_t>(rates[index]) >> 56;
    for (std::uint64_t byte = 0; byte < 256; ++byte) {
      if (byte != top) check(index, (byte ^ top) << 56);
    }
  }
  EXPECT_GT(refused, 0u);
  EXPECT_GT(solved, 0u);
}

/// Plays slots [from, to) of `instance` through `controller` with a
/// perfect forecast of the sparse demand.
void play_slots(online::Controller& controller,
                const model::ProblemInstance& instance,
                const workload::Predictor& predictor, std::size_t from,
                std::size_t to, const std::string& label) {
  for (std::size_t t = from; t < to; ++t) {
    online::DecisionContext ctx;
    ctx.slot = t;
    ctx.true_demand_sparse = &instance.sparse_demand.slot(t);
    ctx.predictor = &predictor;
    const model::SlotDecision decision = controller.decide(ctx);
    EXPECT_EQ(decision.cache.num_sbs(), instance.config.num_sbs())
        << label << " slot " << t;
    controller.observe(t, decision);
  }
}

TEST(DecoderFuzz, SolverSnapshotMutants) {
  use_one_thread();
  const auto instance = fuzz_instance();
  const workload::PerfectPredictor predictor(instance.sparse_demand);
  constexpr std::size_t kWindow = 3;
  constexpr std::size_t kCommit = 2;
  constexpr std::size_t kSplit = 2;  // slots played before the snapshot

  online::ChcController original(kWindow, kCommit, fuzz_options());
  original.reset(instance);
  play_slots(original, instance, predictor, 0, kSplit, "original");
  util::BinaryWriter writer;
  original.save_state(writer);
  const Bytes payload = writer.bytes();

  // An accepted snapshot must carry the controller through the rest of the
  // horizon: the restored plans feed the next window solves.
  Tally tally;
  for_each_mutant(payload, [&](const Bytes& bytes, const std::string& label) {
    online::ChcController controller(kWindow, kCommit, fuzz_options());
    controller.reset(instance);
    try {
      util::BinaryReader reader(bytes);
      controller.restore_state(reader);
      if (!reader.exhausted()) {
        ++tally.rejected;  // trailing bytes: a resume refuses the snapshot
        return;
      }
    } catch (const InvalidArgument&) {
      ++tally.rejected;
      return;
    }
    ++tally.accepted;
    try {
      play_slots(controller, instance, predictor, kSplit, instance.horizon(),
                 label);
    } catch (const std::exception& e) {
      ADD_FAILURE() << label << ": decide threw " << e.what();
    }
  });
  EXPECT_GT(tally.rejected, 0u);
  EXPECT_GT(tally.accepted, 0u);
}

/// A tiny instance for whole-run replays: one SBS, so a checkpoint payload
/// stays a few kilobytes and each mutant replays in well under a
/// millisecond.
model::ProblemInstance checkpoint_instance() {
  workload::PaperScenario scenario;
  scenario.num_sbs = 1;
  scenario.num_contents = 4;
  scenario.classes_per_sbs = 2;
  scenario.horizon = 6;
  scenario.cache_capacity = 2;
  scenario.bandwidth = 2.0;
  scenario.beta = 1.0;
  scenario.seed = 5;
  return scenario.build();
}

/// A checkpointable Robust(CHC) stack that counts reset() calls: the
/// simulator resets once per run and once more when it rejects a snapshot
/// and falls back to a cold start.
struct CountingRobustChc final : online::Controller {
  online::ChcController chc;
  online::RobustController robust;
  std::size_t resets = 0;

  CountingRobustChc() : chc(3, 2, stubborn_options()), robust(chc) {}

  /// Never converges (epsilon 1e-16), so a one-check budget expires in
  /// every plan and the supervision log fills deterministically.
  static core::PrimalDualOptions stubborn_options() {
    core::PrimalDualOptions options;
    options.max_iterations = 4;
    options.epsilon = 1e-16;
    return options;
  }

  std::string name() const override { return robust.name(); }
  void reset(const model::ProblemInstance& instance) override {
    ++resets;
    robust.reset(instance);
  }
  model::SlotDecision decide(const online::DecisionContext& ctx) override {
    return robust.decide(ctx);
  }
  void observe(std::size_t t, const model::SlotDecision& d) override {
    robust.observe(t, d);
  }
  bool supports_checkpoint() const override { return true; }
  void save_state(util::BinaryWriter& w) const override {
    robust.save_state(w);
  }
  void restore_state(util::BinaryReader& r) override {
    robust.restore_state(r);
  }
};

class CheckpointPayloadFuzz : public ::testing::TestWithParam<Mutation> {};

TEST_P(CheckpointPayloadFuzz, RobustChcMutantsRejectOrResume) {
  use_one_thread();
  const auto instance = checkpoint_instance();
  const workload::PerfectPredictor predictor(instance.demand);
  // An SBS outage before the checkpoint puts degradation events and a
  // resync into the snapshot; a predictor blackout after it makes the
  // resumed run serve the restored last-executed decision.
  sim::FaultInjectionConfig fault_config;
  fault_config.outages.push_back({0, {1, 2}});
  fault_config.predictor_blackouts.push_back({4, 6});
  const sim::FaultInjector faults(fault_config);
  const std::string path = testing::TempDir() + "fuzz_ckpt_" +
                           testing::PrintToString(GetParam()) + ".bin";

  runtime::SupervisionLog log;
  sim::SimulatorOptions options;
  options.faults = &faults;
  options.decision_budget_checks = 1;
  options.supervision = &log;
  options.checkpoint_path = path;
  options.checkpoint_every = 3;
  options.halt_after_slot = 3;
  {
    CountingRobustChc victim;
    sim::Simulator(instance, predictor, options).run(victim);
  }
  ASSERT_FALSE(log.events.empty());
  const Bytes payload = runtime::read_checkpoint_file(path);

  options.halt_after_slot = static_cast<std::size_t>(-1);
  options.checkpoint_every = instance.horizon();  // resumed runs write none
  options.resume = true;
  // Every rejected mutant logs a cold-start warning; keep the output short.
  const LogLevel saved_level = log_level();
  set_log_level(LogLevel::kError);
  Tally tally;
  const auto replay = [&](const Bytes& bytes, const std::string& label) {
    runtime::write_checkpoint_file(path, bytes);
    CountingRobustChc controller;
    try {
      const sim::SimulationResult result =
          sim::Simulator(instance, predictor, options).run(controller);
      EXPECT_EQ(result.slots.size(), instance.horizon()) << label;
    } catch (const std::exception& e) {
      ADD_FAILURE() << label << ": resumed run threw " << e.what();
    }
    if (controller.resets > 1) {
      ++tally.rejected;
    } else {
      ++tally.accepted;
    }
  };
  for_each_mutant(payload, GetParam(), replay);
  set_log_level(saved_level);
  std::remove(path.c_str());
  EXPECT_GT(tally.rejected, 0u);
  // Every truncation trips the trailing-bytes or short-read check.
  if (GetParam() != Mutation::kTruncate) {
    EXPECT_GT(tally.accepted, 0u);
  }
}

// The "checkpoint" prefix keeps these in the TSan CI leg's -R filter.
INSTANTIATE_TEST_SUITE_P(checkpoint, CheckpointPayloadFuzz,
                         ::testing::Values(Mutation::kFlip,
                                           Mutation::kTruncate,
                                           Mutation::kInflate),
                         [](const ::testing::TestParamInfo<Mutation>& family) {
                           return testing::PrintToString(family.param);
                         });

}  // namespace
}  // namespace mdo
