#include "sampling/cnarw.h"

#include <algorithm>
#include <memory>
#include <vector>

namespace kgaq {

namespace {

// Distinct-neighbor sets are materialized once as sorted vectors; the
// weight function is called once per (u, arc) during TransitionModel
// construction and intersects the two sorted lists with a linear merge —
// cache-friendly and allocation-free, unlike per-node hash sets.
class CommonNeighborOracle {
 public:
  explicit CommonNeighborOracle(const KnowledgeGraph& g) : g_(&g) {
    neighbor_sets_.resize(g.NumNodes());
  }

  double Weight(NodeId u, NodeId v) {
    const auto& nu = Set(u);
    const auto& nv = Set(v);
    size_t common = 0;
    for (size_t i = 0, j = 0; i < nu.size() && j < nv.size();) {
      if (nu[i] < nv[j]) {
        ++i;
      } else if (nv[j] < nu[i]) {
        ++j;
      } else {
        ++common;
        ++i;
        ++j;
      }
    }
    const size_t denom = std::min(nu.size(), nv.size());
    const double w =
        denom == 0 ? 1.0
                   : 1.0 - static_cast<double>(common) /
                               static_cast<double>(denom);
    return std::max(w, 0.05);
  }

 private:
  const std::vector<NodeId>& Set(NodeId u) {
    auto& s = neighbor_sets_[u];
    if (s.empty() && g_->Degree(u) > 0) {
      s.reserve(g_->Degree(u));
      for (const Neighbor& nb : g_->Neighbors(u)) s.push_back(nb.node);
      std::sort(s.begin(), s.end());
      s.erase(std::unique(s.begin(), s.end()), s.end());
    }
    return s;
  }

  const KnowledgeGraph* g_;
  std::vector<std::vector<NodeId>> neighbor_sets_;
};

}  // namespace

TransitionModel BuildCnarwTransitionModel(const KnowledgeGraph& g,
                                          const BoundedSubgraph& scope,
                                          const TransitionOptions& options) {
  auto oracle = std::make_shared<CommonNeighborOracle>(g);
  return TransitionModel(
      g, scope,
      [oracle](NodeId u, const Neighbor& nb) {
        return oracle->Weight(u, nb.node);
      },
      options);
}

}  // namespace kgaq
