#include "qubo/csr.h"

#include <cassert>

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

}  // namespace qubo
}  // namespace qmqo
