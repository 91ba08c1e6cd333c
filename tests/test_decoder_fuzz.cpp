// Deterministic payload mutation fuzz for the binary decoders: the sparse
// demand trace codec (model::read_sparse_trace) and the solver's warm-state
// snapshot (core::PrimalDualSolver::restore_state).
//
// Every mutant of a valid payload — one bit flipped per byte, a truncation
// at every length, and every small 8-byte little-endian window (a superset
// of the count and dimension fields) inflated — must either be rejected
// with InvalidArgument or decode into an object that the following
// validate()/solve() handles: a decoded trace may still be refused by
// validate(), and a flipped exponent bit can leave a finite rate so large
// that the flow solver reports SolverError, but no other exception, hang or
// memory error is allowed. The decoders run on in-memory payloads, so no
// file checksum masks a mutation; in the sanitizer build any out-of-bounds
// access fails the run.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <initializer_list>
#include <string>
#include <vector>

#include "core/primal_dual.hpp"
#include "model/sparse_demand_io.hpp"
#include "util/error.hpp"
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

/// Calls fn(mutant, label) for every mutant of `payload`.
template <class Fn>
void for_each_mutant(const Bytes& payload, Fn&& fn) {
  Bytes mutant;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    mutant = payload;
    mutant[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
    fn(mutant, "flip@" + std::to_string(i));
  }
  for (std::size_t length = 0; length < payload.size(); ++length) {
    mutant.assign(payload.begin(),
                  payload.begin() + static_cast<std::ptrdiff_t>(length));
    fn(mutant, "truncate@" + std::to_string(length));
  }
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

/// A small truncated-Zipf sparse instance: the stored rows are a strict
/// subset of the catalogue, so the payloads carry real index lists.
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

TEST(DecoderFuzz, SparseTracePayloadMutants) {
  use_one_thread();
  const auto instance = fuzz_instance();
  util::BinaryWriter writer;
  model::write_sparse_trace(writer, instance.sparse_demand);
  const Bytes payload = writer.bytes();

  Tally tally;
  for_each_mutant(payload, [&](const Bytes& bytes, const std::string& label) {
    model::SparseDemandTrace trace;
    try {
      util::BinaryReader reader(bytes);
      trace = model::read_sparse_trace(reader);
    } catch (const InvalidArgument&) {
      ++tally.rejected;
      return;
    }
    try {
      trace.validate(instance.config);
    } catch (const InvalidArgument&) {
      ++tally.accepted;
      return;
    }
    ++tally.accepted;
    if (trace.horizon() == 0) return;
    core::HorizonProblem problem;
    problem.config = &instance.config;
    problem.sparse_demand = &trace;
    problem.initial_cache = instance.initial_cache;
    try {
      core::PrimalDualSolver solver(fuzz_options());
      const core::HorizonSolution solution = solver.solve(problem);
      EXPECT_EQ(solution.schedule.size(), trace.horizon()) << label;
    } catch (const SolverError&) {
      // Numerical breakdown at an absurd but finite demand scale.
    } catch (const std::exception& e) {
      ADD_FAILURE() << label << ": solve threw " << e.what();
    }
  });
  EXPECT_GT(tally.rejected, 0u);
  EXPECT_GT(tally.accepted, 0u);
}

TEST(DecoderFuzz, SolverSnapshotMutants) {
  use_one_thread();
  const auto instance = fuzz_instance();
  const workload::PerfectPredictor predictor(instance.sparse_demand);
  model::SparseDemandTrace window = predictor.predict_window_sparse(0, 3);
  core::HorizonProblem problem;
  problem.config = &instance.config;
  problem.sparse_demand = &window;
  problem.initial_cache = instance.initial_cache;

  core::PrimalDualSolver original(fuzz_options());
  const linalg::Vec warm_mu = original.solve(problem).mu;
  original.advance_window(1);
  util::BinaryWriter writer;
  original.save_state(writer);
  const Bytes payload = writer.bytes();

  // The follow-up solves run on the next window, so a warm mu exercises the
  // content-id remap against the restored geometry.
  window = predictor.predict_window_sparse(1, 3);
  Tally tally;
  for_each_mutant(payload, [&](const Bytes& bytes, const std::string& label) {
    core::PrimalDualSolver solver(fuzz_options());
    try {
      util::BinaryReader reader(bytes);
      solver.restore_state(reader);
    } catch (const InvalidArgument&) {
      ++tally.rejected;
      return;
    }
    ++tally.accepted;
    core::PrimalDualSolver warm_solver(fuzz_options());
    util::BinaryReader reader(bytes);
    warm_solver.restore_state(reader);
    try {
      solver.advance_window(1);
      const core::HorizonSolution solution = solver.solve(problem);
      EXPECT_EQ(solution.schedule.size(), window.horizon()) << label;
    } catch (const std::exception& e) {
      ADD_FAILURE() << label << ": cold solve threw " << e.what();
    }
    try {
      warm_solver.advance_window(1);
      const core::HorizonSolution solution =
          warm_solver.solve(problem, &warm_mu);
      EXPECT_EQ(solution.schedule.size(), window.horizon()) << label;
    } catch (const InvalidArgument&) {
      // A warm mu that disagrees with the restored geometry is refused.
    } catch (const std::exception& e) {
      ADD_FAILURE() << label << ": warm solve threw " << e.what();
    }
  });
  EXPECT_GT(tally.rejected, 0u);
  EXPECT_GT(tally.accepted, 0u);
}

}  // namespace
}  // namespace mdo
