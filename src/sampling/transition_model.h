#ifndef KGAQ_SAMPLING_TRANSITION_MODEL_H_
#define KGAQ_SAMPLING_TRANSITION_MODEL_H_

#include <functional>
#include <span>
#include <vector>

#include "common/random.h"
#include "embedding/predicate_similarity.h"
#include "kg/bfs.h"
#include "kg/knowledge_graph.h"

namespace kgaq {

/// Which derived per-arc views a TransitionModel materializes beyond the
/// outgoing CSR + alias rows (always built; they are the walk hot path).
///
/// The default set costs ~44 bytes/arc; walk-only models (pure
/// sampling, no stationary solve) get by with ~28 bytes/arc.
struct TransitionOptions {
  /// Lemma 2 self-loop similarity injected at the walk source.
  double self_loop_similarity = 0.001;
  /// Materialize the incoming-arc CSR (+16 bytes/arc) that the gather-based
  /// stationary solver sweeps. On by default; walk-only uses (step sampling
  /// without ComputeStationaryDistribution) can drop it — the solver then
  /// falls back to a bitwise-identical serial scatter sweep if called.
  bool build_in_csr = true;
};

/// Row-stochastic transition structure of the random walk, restricted to
/// an n-bounded subgraph scope (§IV-A2).
///
/// Nodes are renumbered to dense *local* ids (scope.nodes order, source at
/// local id 0). Arc weights come from a caller-supplied weight function;
/// the semantic-aware walk (Eq. 5) weights each arc by the predicate
/// similarity of its edge, while CNARW supplies topology-derived weights.
/// Per Lemma 2, a small self-loop is added at the source so the chain is
/// aperiodic.
///
/// Besides the outgoing CSR the model materializes two derived structures:
///  - a pooled per-node alias table (one flat prob/alias array sharing the
///    CSR offsets) making SampleNext O(1) per step instead of a binary
///    search over per-node cumulative sums; and
///  - an incoming-arc CSR (per target: the arcs reaching it, ordered by
///    source local id) that lets the stationary-distribution solver run
///    gather-based sweeps over disjoint target ranges without atomics.
class TransitionModel {
 public:
  /// Weight of one traversal arc out of node `u`; must be > 0 (Lemma 1).
  using ArcWeightFn =
      std::function<double(NodeId u, const Neighbor& neighbor)>;

  struct Arc {
    uint32_t target;     ///< Local id of the node this arc reaches.
    double probability;  ///< Normalized transition probability p_ij.
  };

  /// One incoming arc of a target node: the mirror view of Arc, used by the
  /// gather-based power iteration (next[t] = sum_u pi[u] * p_ut).
  struct InArc {
    uint32_t source;     ///< Local id of the node this arc leaves.
    double probability;  ///< Normalized transition probability p_ut.
  };

  /// Builds the semantic-aware model of Eq. 5: p_ij proportional to
  /// sim(L_G(e'), L_Q(e)).
  TransitionModel(const KnowledgeGraph& g, const BoundedSubgraph& scope,
                  const PredicateSimilarityCache& sims,
                  const TransitionOptions& options = {});

  /// Builds a model with arbitrary positive arc weights (CNARW etc.).
  TransitionModel(const KnowledgeGraph& g, const BoundedSubgraph& scope,
                  const ArcWeightFn& weight_fn,
                  const TransitionOptions& options = {});

  size_t NumScopeNodes() const { return globals_.size(); }

  /// Total number of arcs in the model (== incoming arcs).
  size_t NumArcs() const { return arcs_.size(); }

  /// Local id of the walk source (always 0).
  size_t SourceLocal() const { return 0; }

  NodeId GlobalId(size_t local) const { return globals_[local]; }

  /// Local id of `u` or kInvalidId when `u` is outside the scope (including
  /// NodeIds outside the graph entirely).
  uint32_t LocalId(NodeId u) const {
    return u < locals_.size() ? locals_[u] : kInvalidId;
  }

  /// Outgoing arcs (normalized probabilities summing to 1) of `local`.
  std::span<const Arc> Arcs(size_t local) const {
    return {arcs_.data() + offsets_[local],
            offsets_[local + 1] - offsets_[local]};
  }

  /// Incoming arcs of `local`, ordered by source local id — the order in
  /// which a push/scatter sweep would have accumulated into `local`, so a
  /// gather over this list is bitwise-identical to the scatter result.
  /// Empty when the model was built with TransitionOptions::build_in_csr
  /// off (check has_in_csr()).
  std::span<const InArc> InArcs(size_t local) const {
    if (in_offsets_.empty()) return {};
    return {in_arcs_.data() + in_offsets_[local],
            in_offsets_[local + 1] - in_offsets_[local]};
  }

  /// True when the incoming-arc CSR was materialized.
  bool has_in_csr() const { return !in_offsets_.empty(); }

  /// Resident bytes of every materialized per-arc/per-node view; drives
  /// the ROADMAP memory audit (bytes/arc before vs after gating).
  size_t MemoryBytes() const;

  /// Draws the next node exactly from the categorical distribution of
  /// `local`'s arcs in O(1): one uniform slot pick plus one biased coin
  /// against the node's alias row (Walker/Vose), independent of degree.
  size_t SampleNext(size_t local, Rng& rng) const {
    const size_t begin = offsets_[local];
    const size_t slot = begin + rng.NextBounded(offsets_[local + 1] - begin);
    const size_t k = rng.NextDouble() < alias_prob_[slot]
                         ? slot
                         : begin + alias_index_[slot];
    return arcs_[k].target;
  }

  /// Draws the next node with the paper's walking-with-rejection policy:
  /// pick a uniform neighbor, accept with probability proportional to its
  /// transition weight; repeat until accepted. Distributionally equivalent
  /// to SampleNext; kept for fidelity and cross-checked in tests.
  size_t SampleNextRejection(size_t local, Rng& rng) const;

 private:
  void BuildArcs(const KnowledgeGraph& g, const BoundedSubgraph& scope,
                 const ArcWeightFn& weight_fn,
                 const TransitionOptions& options);

  std::vector<NodeId> globals_;    // local -> global
  std::vector<uint32_t> locals_;   // global -> local (kInvalidId outside)
  std::vector<size_t> offsets_;    // CSR offsets into arcs_
  std::vector<Arc> arcs_;
  std::vector<double> max_prob_;   // per-node max arc probability

  // Pooled per-node alias rows, sharing offsets_. alias_index_ entries are
  // row-local, so one uint32 suffices regardless of pool size.
  std::vector<double> alias_prob_;
  std::vector<uint32_t> alias_index_;

  // Incoming-arc CSR (gather view), sharing no storage with arcs_ but the
  // same total length. Empty unless TransitionOptions::build_in_csr.
  std::vector<size_t> in_offsets_;
  std::vector<InArc> in_arcs_;
};

}  // namespace kgaq

#endif  // KGAQ_SAMPLING_TRANSITION_MODEL_H_
