// Minimum-cost flow via successive shortest paths with node potentials.
//
// This is the exact engine behind the caching subproblem P1: Theorem 1 of
// the paper shows P1's constraint matrix is totally unimodular, and the
// time-expanded cache-slot network built in core/caching.cpp realizes that
// structure as a flow problem, so C_n shortest-path augmentations return the
// integral optimum directly. Costs are real-valued (they come from Lagrange
// multipliers); capacities are integral.
//
// Requirements: no negative-cost cycle may be reachable (our networks are
// DAGs, which trivially satisfies this; successive-shortest-path invariants
// keep the residual graph cycle-free in cost). Each augmentation runs SPFA,
// which handles the real-valued, possibly negative arc costs exactly.
//
// Storage is flat: arcs live in one interleaved forward/reverse array and
// the per-node adjacency is a CSR index (first_/adj_) built on the first
// solve() after the topology changes. clear() and reserve() keep every
// buffer's capacity, so a network rebuilt at the same or a smaller size
// allocates nothing.
#pragma once

#include <cstdint>
#include <vector>

namespace mdo::solver {

class MinCostFlow {
 public:
  /// Creates a network with `num_nodes` nodes (indices 0..num_nodes-1).
  explicit MinCostFlow(std::size_t num_nodes);

  /// Drops every arc and leaves `num_nodes` nodes; keeps all capacity.
  void clear(std::size_t num_nodes);

  /// Pre-sizes the buffers for `nodes` nodes and `arcs` arcs.
  void reserve(std::size_t nodes, std::size_t arcs);

  /// Adds one more node; returns its index.
  std::size_t add_node();

  /// Adds a directed arc; returns an arc id usable with flow_on().
  /// Capacity must be non-negative.
  std::size_t add_arc(std::size_t from, std::size_t to, std::int64_t capacity,
                      double cost);

  struct Result {
    std::int64_t flow = 0;  // units actually sent (<= requested)
    double cost = 0.0;      // total cost of the flow sent
  };

  /// Sends up to `max_flow` units from `source` to `sink` at minimum cost.
  /// Augmentation stops early when the sink becomes unreachable, so
  /// Result::flow can be less than max_flow (the caller decides whether
  /// that is an error).
  ///
  /// NOTE: minimizes cost **for the flow value it achieves**; with
  /// free (zero-cost) bypass arcs in the network this equals the min-cost
  /// flow of any value up to max_flow, which is how core/caching.cpp uses it.
  Result solve(std::size_t source, std::size_t sink, std::int64_t max_flow);

  /// Flow currently routed on the arc with the given id.
  std::int64_t flow_on(std::size_t arc_id) const;

  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t num_arcs() const { return arcs_.size() / 2; }

  /// Resets all flows to zero (keeps the network).
  void reset_flow();

  /// Re-prices an existing arc (forward cost = `cost`, reverse = -cost).
  /// Only meaningful on a flow-free network — call reset_flow() first —
  /// because residual costs of routed flow would become inconsistent.
  /// This is what lets core/caching.cpp reuse one time-expanded network
  /// across dual iterations that only change the rewards.
  void set_arc_cost(std::size_t arc_id, double cost);

 private:
  struct Arc {
    std::size_t to;
    std::int64_t capacity;  // residual capacity
    double cost;
    std::size_t reverse;  // index of the reverse arc in arcs_
  };

  void build_adjacency();
  bool shortest_path(std::size_t source);

  std::size_t num_nodes_ = 0;
  std::vector<Arc> arcs_;  // forward/backward interleaved (arc id a: 2a, 2a+1)
  std::vector<std::int64_t> original_capacity_;  // per public arc id
  // CSR adjacency: node v's residual arcs are adj_[first_[v], first_[v+1]),
  // in insertion order. Stale (adjacency_valid_ == false) after any topology
  // change until the next solve() rebuilds it.
  std::vector<std::size_t> first_;
  std::vector<std::size_t> adj_;
  bool adjacency_valid_ = false;

  // SPFA scratch, reused across augmentations and solve() calls so the
  // inner loop stays allocation-free once the buffers reach network size.
  std::vector<double> dist_;
  std::vector<std::size_t> prev_arc_;
  std::vector<char> in_queue_;
  std::vector<std::size_t> fifo_;  // circular buffer, capacity num_nodes + 1
};

}  // namespace mdo::solver
