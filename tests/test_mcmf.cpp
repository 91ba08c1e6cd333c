// Unit tests for the min-cost-flow solver.
#include <gtest/gtest.h>

#include <vector>

#include "solver/mcmf.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mdo::solver {
namespace {

TEST(Mcmf, SimplePathRoutesAllFlow) {
  MinCostFlow net(3);
  const auto a = net.add_arc(0, 1, 5, 2.0);
  const auto b = net.add_arc(1, 2, 5, 3.0);
  const auto result = net.solve(0, 2, 4);
  EXPECT_EQ(result.flow, 4);
  EXPECT_DOUBLE_EQ(result.cost, 4 * 5.0);
  EXPECT_EQ(net.flow_on(a), 4);
  EXPECT_EQ(net.flow_on(b), 4);
}

TEST(Mcmf, PrefersCheaperParallelPath) {
  MinCostFlow net(2);
  const auto cheap = net.add_arc(0, 1, 3, 1.0);
  const auto expensive = net.add_arc(0, 1, 10, 4.0);
  const auto result = net.solve(0, 1, 5);
  EXPECT_EQ(result.flow, 5);
  EXPECT_DOUBLE_EQ(result.cost, 3 * 1.0 + 2 * 4.0);
  EXPECT_EQ(net.flow_on(cheap), 3);
  EXPECT_EQ(net.flow_on(expensive), 2);
}

TEST(Mcmf, StopsWhenSinkUnreachable) {
  MinCostFlow net(3);
  net.add_arc(0, 1, 2, 1.0);
  net.add_arc(1, 2, 1, 1.0);  // bottleneck
  const auto result = net.solve(0, 2, 5);
  EXPECT_EQ(result.flow, 1);
}

TEST(Mcmf, HandlesNegativeCosts) {
  // A negative-cost detour should be taken.
  MinCostFlow net(3);
  net.add_arc(0, 2, 1, 0.0);
  net.add_arc(0, 1, 1, -5.0);
  net.add_arc(1, 2, 1, 0.0);
  const auto result = net.solve(0, 2, 2);
  EXPECT_EQ(result.flow, 2);
  EXPECT_DOUBLE_EQ(result.cost, -5.0);
}

TEST(Mcmf, ReroutesThroughResidualArcs) {
  // Classic example where the second augmentation must cancel flow on the
  // first path to stay optimal.
  MinCostFlow net(4);
  net.add_arc(0, 1, 1, 1.0);
  net.add_arc(0, 2, 1, 5.0);
  net.add_arc(1, 2, 1, -4.0);
  net.add_arc(1, 3, 1, 5.0);
  net.add_arc(2, 3, 1, 1.0);
  const auto result = net.solve(0, 3, 2);
  EXPECT_EQ(result.flow, 2);
  // The first augmentation takes 0->1->2->3 (cost -2); the only way to
  // route the second unit is 0->2, cancel 1->2 through its residual (+4),
  // then 1->3: cost 14. Net flow: 0->1->3 and 0->2->3, total cost 12.
  EXPECT_DOUBLE_EQ(result.cost, 12.0);
}

TEST(Mcmf, ZeroFlowRequest) {
  MinCostFlow net(2);
  net.add_arc(0, 1, 1, 1.0);
  const auto result = net.solve(0, 1, 0);
  EXPECT_EQ(result.flow, 0);
  EXPECT_DOUBLE_EQ(result.cost, 0.0);
}

TEST(Mcmf, SourceEqualsSink) {
  MinCostFlow net(1);
  const auto result = net.solve(0, 0, 5);
  EXPECT_EQ(result.flow, 0);
}

TEST(Mcmf, ResetFlowRestoresCapacities) {
  MinCostFlow net(2);
  const auto arc = net.add_arc(0, 1, 3, 1.0);
  net.solve(0, 1, 3);
  EXPECT_EQ(net.flow_on(arc), 3);
  net.reset_flow();
  EXPECT_EQ(net.flow_on(arc), 0);
  const auto result = net.solve(0, 1, 2);
  EXPECT_EQ(result.flow, 2);
}

TEST(Mcmf, ValidatesArguments) {
  MinCostFlow net(2);
  EXPECT_THROW(net.add_arc(0, 5, 1, 0.0), InvalidArgument);
  EXPECT_THROW(net.add_arc(0, 1, -1, 0.0), InvalidArgument);
  net.add_arc(0, 1, 1, 0.0);
  EXPECT_THROW(net.flow_on(7), InvalidArgument);
  EXPECT_THROW(net.solve(0, 9, 1), InvalidArgument);
}

TEST(Mcmf, AddNodeGrowsGraph) {
  MinCostFlow net(1);
  const auto node = net.add_node();
  EXPECT_EQ(node, 1u);
  EXPECT_EQ(net.num_nodes(), 2u);
  net.add_arc(0, node, 1, 1.0);
  EXPECT_EQ(net.num_arcs(), 1u);
}

TEST(Mcmf, EqualCostTiesGoToTheFirstInsertedArc) {
  // Node 0's two parallel arcs are interleaved with arcs of other tails, so
  // the adjacency must list each node's arcs in insertion order (a stable
  // sort by tail) for the tie to resolve the same way on every build.
  MinCostFlow net(3);
  net.add_arc(1, 2, 1, 0.0);
  const auto first = net.add_arc(0, 1, 1, 1.0);
  net.add_arc(2, 1, 1, 0.0);
  const auto second = net.add_arc(0, 1, 1, 1.0);
  const auto result = net.solve(0, 2, 1);
  EXPECT_EQ(result.flow, 1);
  EXPECT_EQ(net.flow_on(first), 1);
  EXPECT_EQ(net.flow_on(second), 0);
}

TEST(Mcmf, TopologyChangeAfterSolveIsSeen) {
  MinCostFlow net(2);
  net.add_arc(0, 1, 1, 5.0);
  EXPECT_EQ(net.solve(0, 1, 1).cost, 5.0);
  net.reset_flow();
  const auto mid = net.add_node();
  const auto in = net.add_arc(0, mid, 1, 1.0);
  net.add_arc(mid, 1, 1, 1.0);
  EXPECT_EQ(net.solve(0, 1, 1).cost, 2.0);
  EXPECT_EQ(net.flow_on(in), 1);
}

/// Random DAG on `nodes` nodes with small integral costs and parallel
/// twins, so many shortest paths tie and the adjacency order decides them.
std::vector<std::size_t> add_random_dag(MinCostFlow& net, std::size_t nodes,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::size_t> ids;
  for (std::size_t from = 0; from < nodes; ++from) {
    for (std::size_t to = from + 1; to < nodes; ++to) {
      if (!rng.bernoulli(0.6)) continue;
      const auto cap = rng.uniform_int(1, 3);
      const auto cost = static_cast<double>(rng.uniform_int(-1, 4));
      ids.push_back(net.add_arc(from, to, cap, cost));
      if (rng.bernoulli(0.3)) ids.push_back(net.add_arc(from, to, cap, cost));
    }
  }
  return ids;
}

TEST(Mcmf, NetworkRebuiltAfterClearSolvesLikeFresh) {
  // One network cleared and rebuilt through growing and shrinking sizes
  // must match a freshly constructed network bit for bit: flow, cost and
  // the flow on every arc.
  MinCostFlow reused(4);
  reused.add_arc(0, 3, 2, 1.0);
  reused.solve(0, 3, 2);
  std::uint64_t seed = 1;
  for (const std::size_t nodes : {9u, 5u, 12u, 3u, 12u}) {
    for (int rep = 0; rep < 3; ++rep, ++seed) {
      reused.clear(nodes);
      if (rep != 1) reused.reserve(nodes, nodes * nodes);
      const auto ids = add_random_dag(reused, nodes, seed);
      MinCostFlow fresh(nodes);
      add_random_dag(fresh, nodes, seed);
      EXPECT_EQ(reused.num_nodes(), nodes);
      EXPECT_EQ(reused.num_arcs(), ids.size());
      const auto got = reused.solve(0, nodes - 1, 5);
      const auto want = fresh.solve(0, nodes - 1, 5);
      EXPECT_EQ(got.flow, want.flow) << "seed " << seed;
      EXPECT_EQ(got.cost, want.cost) << "seed " << seed;
      for (const auto id : ids) {
        EXPECT_EQ(reused.flow_on(id), fresh.flow_on(id)) << "seed " << seed;
      }
    }
  }
  reused.clear(2);
  EXPECT_EQ(reused.num_arcs(), 0u);
  EXPECT_THROW(reused.add_arc(0, 2, 1, 0.0), InvalidArgument);
  EXPECT_THROW(reused.flow_on(0), InvalidArgument);
}

/// Property: flow conservation holds at every intermediate node and the
/// reported cost equals the sum over arcs of flow * cost.
class McmfRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(McmfRandomTest, ConservationAndCostConsistency) {
  Rng rng(GetParam());
  const std::size_t nodes = 6;
  MinCostFlow net(nodes);
  struct ArcInfo {
    std::size_t id, from, to;
    double cost;
  };
  std::vector<ArcInfo> arcs;
  // Forward (low -> high) arcs only: a DAG cannot contain negative cycles,
  // matching the structure of the caching networks this solver serves.
  for (std::size_t from = 0; from < nodes; ++from) {
    for (std::size_t to = from + 1; to < nodes; ++to) {
      if (!rng.bernoulli(0.6)) continue;
      const auto cap = rng.uniform_int(0, 4);
      const double cost = rng.uniform(-2.0, 8.0);
      arcs.push_back({net.add_arc(from, to, cap, cost), from, to, cost});
    }
  }
  const auto result = net.solve(0, nodes - 1, 6);
  ASSERT_GE(result.flow, 0);

  std::vector<std::int64_t> balance(nodes, 0);
  double cost = 0.0;
  for (const auto& arc : arcs) {
    const auto f = net.flow_on(arc.id);
    EXPECT_GE(f, 0);
    balance[arc.from] -= f;
    balance[arc.to] += f;
    cost += static_cast<double>(f) * arc.cost;
  }
  EXPECT_EQ(balance[0], -result.flow);
  EXPECT_EQ(balance[nodes - 1], result.flow);
  for (std::size_t v = 1; v + 1 < nodes; ++v) EXPECT_EQ(balance[v], 0);
  EXPECT_NEAR(cost, result.cost, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, McmfRandomTest,
                         ::testing::Range<std::uint64_t>(1, 26));

}  // namespace
}  // namespace mdo::solver
