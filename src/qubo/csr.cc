#include "qubo/csr.h"

#include <algorithm>
#include <cassert>
#include <deque>

namespace qmqo {
namespace qubo {

void CsrGraph::Build(int num_vars,
                     const std::vector<Interaction>& interactions) {
  assert(num_vars >= 0);
  row_offsets.assign(static_cast<size_t>(num_vars) + 1, 0);
  neighbor_ids.assign(interactions.size() * 2, 0);
  weights.assign(interactions.size() * 2, 0.0);

  // Pass 1: degrees (counted into row_offsets[i + 1]).
  for (const Interaction& term : interactions) {
    ++row_offsets[static_cast<size_t>(term.i) + 1];
    ++row_offsets[static_cast<size_t>(term.j) + 1];
  }
  for (int i = 0; i < num_vars; ++i) {
    row_offsets[static_cast<size_t>(i) + 1] +=
        row_offsets[static_cast<size_t>(i)];
  }

  // Pass 2: fill. Scanning the (i, j)-sorted interaction list keeps every
  // row sorted by neighbor id: row v receives neighbors a < v (from terms
  // (a, v), scanned in ascending a) before neighbors b > v (from terms
  // (v, b), scanned in ascending b).
  std::vector<int32_t> cursor(row_offsets.begin(), row_offsets.end() - 1);
  for (const Interaction& term : interactions) {
    int32_t slot_i = cursor[static_cast<size_t>(term.i)]++;
    neighbor_ids[static_cast<size_t>(slot_i)] = term.j;
    weights[static_cast<size_t>(slot_i)] = term.weight;
    int32_t slot_j = cursor[static_cast<size_t>(term.j)]++;
    neighbor_ids[static_cast<size_t>(slot_j)] = term.i;
    weights[static_cast<size_t>(slot_j)] = term.weight;
  }
}

int Coloring::max_class_size() const {
  int max_size = 0;
  for (int c = 0; c < num_colors; ++c) {
    max_size = std::max(max_size, class_size(c));
  }
  return max_size;
}

namespace {

/// BFS 2-coloring; returns false (leaving `color_of` partially filled) on
/// the first odd cycle.
bool TryBipartite(const CsrView& graph, std::vector<int>* color_of) {
  const int n = graph.num_vars;
  color_of->assign(static_cast<size_t>(n), -1);
  std::deque<VarId> queue;
  for (VarId start = 0; start < n; ++start) {
    if ((*color_of)[static_cast<size_t>(start)] != -1) continue;
    (*color_of)[static_cast<size_t>(start)] = 0;
    queue.push_back(start);
    while (!queue.empty()) {
      VarId v = queue.front();
      queue.pop_front();
      int neighbor_color = 1 - (*color_of)[static_cast<size_t>(v)];
      for (int32_t e = graph.row_offsets[v]; e < graph.row_offsets[v + 1];
           ++e) {
        const VarId u = graph.neighbor_ids[e];
        int& c = (*color_of)[static_cast<size_t>(u)];
        if (c == -1) {
          c = neighbor_color;
          queue.push_back(u);
        } else if (c != neighbor_color) {
          return false;
        }
      }
    }
  }
  return true;
}

/// First-fit greedy coloring over ascending vertex ids.
int GreedyColors(const CsrView& graph, std::vector<int>* color_of) {
  const int n = graph.num_vars;
  color_of->assign(static_cast<size_t>(n), -1);
  int num_colors = 1;
  std::vector<uint8_t> used;
  for (VarId v = 0; v < n; ++v) {
    used.assign(static_cast<size_t>(num_colors) + 1, 0);
    for (int32_t e = graph.row_offsets[v]; e < graph.row_offsets[v + 1]; ++e) {
      int c = (*color_of)[static_cast<size_t>(graph.neighbor_ids[e])];
      if (c >= 0 && c <= num_colors) used[static_cast<size_t>(c)] = 1;
    }
    int color = 0;
    while (used[static_cast<size_t>(color)]) ++color;
    (*color_of)[static_cast<size_t>(v)] = color;
    num_colors = std::max(num_colors, color + 1);
  }
  return num_colors;
}

}  // namespace

Coloring ColorGraph(const CsrView& graph) {
  const int n = graph.num_vars;
  Coloring coloring;
  coloring.is_bipartite = TryBipartite(graph, &coloring.color_of);
  coloring.num_colors =
      coloring.is_bipartite ? (n > 0 ? 2 : 0)
                            : GreedyColors(graph, &coloring.color_of);
  if (coloring.is_bipartite && n > 0) {
    // A connected bipartite graph may still use one color (no edges).
    bool any_one = false;
    for (int c : coloring.color_of) any_one = any_one || (c == 1);
    if (!any_one) coloring.num_colors = 1;
  }

  // Counting sort into classes; ascending ids within each class.
  coloring.class_offsets.assign(static_cast<size_t>(coloring.num_colors) + 1,
                                0);
  for (int c : coloring.color_of) {
    ++coloring.class_offsets[static_cast<size_t>(c) + 1];
  }
  for (int c = 0; c < coloring.num_colors; ++c) {
    coloring.class_offsets[static_cast<size_t>(c) + 1] +=
        coloring.class_offsets[static_cast<size_t>(c)];
  }
  coloring.class_members.resize(static_cast<size_t>(n));
  std::vector<int32_t> cursor(coloring.class_offsets.begin(),
                              coloring.class_offsets.end() - 1);
  for (VarId v = 0; v < n; ++v) {
    coloring
        .class_members[static_cast<size_t>(
            cursor[static_cast<size_t>(
                coloring.color_of[static_cast<size_t>(v)])]++)] = v;
  }
  return coloring;
}

}  // namespace qubo
}  // namespace qmqo
