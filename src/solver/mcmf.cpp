#include "solver/mcmf.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace mdo::solver {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNoArc = static_cast<std::size_t>(-1);
}  // namespace

MinCostFlow::MinCostFlow(std::size_t num_nodes) : num_nodes_(num_nodes) {}

void MinCostFlow::clear(std::size_t num_nodes) {
  num_nodes_ = num_nodes;
  arcs_.clear();
  original_capacity_.clear();
  adjacency_valid_ = false;
}

void MinCostFlow::reserve(std::size_t nodes, std::size_t arcs) {
  arcs_.reserve(2 * arcs);
  original_capacity_.reserve(arcs);
  adj_.reserve(2 * arcs);
  first_.reserve(nodes + 2);
}

std::size_t MinCostFlow::add_node() {
  adjacency_valid_ = false;
  return num_nodes_++;
}

std::size_t MinCostFlow::add_arc(std::size_t from, std::size_t to,
                                 std::int64_t capacity, double cost) {
  MDO_REQUIRE(from < num_nodes_ && to < num_nodes_,
              "arc endpoint out of range");
  MDO_REQUIRE(capacity >= 0, "arc capacity must be non-negative");
  const std::size_t fwd = arcs_.size();
  arcs_.push_back({to, capacity, cost, fwd + 1});
  arcs_.push_back({from, 0, -cost, fwd});
  original_capacity_.push_back(capacity);
  adjacency_valid_ = false;
  return fwd / 2;
}

void MinCostFlow::build_adjacency() {
  // Stable counting sort of the residual arcs by tail node. The tail of
  // residual arc a is the head of its partner a ^ 1. Counts land at
  // first_[tail + 2], so after the prefix sum first_[v + 1] is v's start;
  // the placement pass advances it to v's end, which is (v + 1)'s start.
  // Arc ids ascend within each node: the order add_arc() created them in.
  first_.assign(num_nodes_ + 2, 0);
  for (std::size_t a = 0; a < arcs_.size(); ++a) ++first_[arcs_[a ^ 1].to + 2];
  for (std::size_t v = 2; v < first_.size(); ++v) first_[v] += first_[v - 1];
  adj_.resize(arcs_.size());
  for (std::size_t a = 0; a < arcs_.size(); ++a) {
    adj_[first_[arcs_[a ^ 1].to + 1]++] = a;
  }
  adjacency_valid_ = true;
}

std::int64_t MinCostFlow::flow_on(std::size_t arc_id) const {
  MDO_REQUIRE(arc_id < original_capacity_.size(), "unknown arc id");
  // Flow equals the residual capacity of the reverse arc.
  return arcs_[arc_id * 2 + 1].capacity;
}

void MinCostFlow::reset_flow() {
  for (std::size_t id = 0; id < original_capacity_.size(); ++id) {
    arcs_[id * 2].capacity = original_capacity_[id];
    arcs_[id * 2 + 1].capacity = 0;
  }
}

void MinCostFlow::set_arc_cost(std::size_t arc_id, double cost) {
  MDO_REQUIRE(arc_id < original_capacity_.size(), "unknown arc id");
  MDO_REQUIRE(arcs_[arc_id * 2 + 1].capacity == 0,
              "set_arc_cost: arc carries flow (reset_flow() first)");
  arcs_[arc_id * 2].cost = cost;
  arcs_[arc_id * 2 + 1].cost = -cost;
}

bool MinCostFlow::shortest_path(std::size_t source) {
  const std::size_t n = num_nodes_;
  dist_.assign(n, kInf);
  prev_arc_.assign(n, kNoArc);
  dist_[source] = 0.0;
  // SPFA (queue-based Bellman-Ford). Successive-shortest-path invariants
  // guarantee the residual graph has no negative cycle, so this terminates;
  // the relaxation limit turns a violated invariant into a diagnosable
  // error instead of an infinite loop. The in_queue_ guard keeps at most n
  // nodes enqueued, so a circular buffer of n + 1 slots never overflows.
  in_queue_.assign(n, 0);
  fifo_.resize(n + 1);
  std::size_t head = 0;
  std::size_t tail = 0;
  auto push = [&](std::size_t v) {
    fifo_[tail] = v;
    tail = tail + 1 == fifo_.size() ? 0 : tail + 1;
  };
  push(source);
  in_queue_[source] = 1;
  std::size_t relaxations = 0;
  const std::size_t relaxation_limit = n * arcs_.size() + 64;
  while (head != tail) {
    const std::size_t u = fifo_[head];
    head = head + 1 == fifo_.size() ? 0 : head + 1;
    in_queue_[u] = 0;
    for (std::size_t i = first_[u]; i < first_[u + 1]; ++i) {
      const std::size_t arc_id = adj_[i];
      const Arc& arc = arcs_[arc_id];
      if (arc.capacity <= 0) continue;
      const double candidate = dist_[u] + arc.cost;
      if (candidate < dist_[arc.to] - 1e-12) {
        dist_[arc.to] = candidate;
        prev_arc_[arc.to] = arc_id;
        if (!in_queue_[arc.to]) {
          push(arc.to);
          in_queue_[arc.to] = 1;
        }
        if (++relaxations > relaxation_limit) {
          throw SolverError(
              "min-cost flow: negative cycle suspected (relaxation limit)");
        }
      }
    }
  }
  return true;
}

MinCostFlow::Result MinCostFlow::solve(std::size_t source, std::size_t sink,
                                       std::int64_t max_flow) {
  MDO_REQUIRE(source < num_nodes_ && sink < num_nodes_,
              "source/sink out of range");
  MDO_REQUIRE(max_flow >= 0, "max_flow must be non-negative");
  Result result;
  if (max_flow == 0 || source == sink) return result;
  if (!adjacency_valid_) build_adjacency();

  while (result.flow < max_flow) {
    shortest_path(source);
    if (dist_[sink] >= kInf) break;  // no more augmenting paths

    // Bottleneck along the path. A simple path has fewer arcs than nodes;
    // a longer walk means rounding left a predecessor cycle (costs far
    // beyond the 1e-12 relaxation tolerance), which would never reach the
    // source.
    std::int64_t push = max_flow - result.flow;
    std::size_t path_arcs = 0;
    for (std::size_t v = sink; v != source;) {
      if (++path_arcs > num_nodes_) {
        throw SolverError("min-cost flow: predecessor cycle (cost scale too "
                          "large for the relaxation tolerance)");
      }
      const Arc& arc = arcs_[prev_arc_[v]];
      push = std::min(push, arc.capacity);
      v = arcs_[arc.reverse].to;
    }
    MDO_CHECK(push > 0, "augmenting path with zero bottleneck");

    // Apply the augmentation.
    double path_cost = 0.0;
    for (std::size_t v = sink; v != source;) {
      Arc& arc = arcs_[prev_arc_[v]];
      arc.capacity -= push;
      arcs_[arc.reverse].capacity += push;
      path_cost += arc.cost;
      v = arcs_[arc.reverse].to;
    }
    result.flow += push;
    result.cost += path_cost * static_cast<double>(push);
  }
  return result;
}

}  // namespace mdo::solver
