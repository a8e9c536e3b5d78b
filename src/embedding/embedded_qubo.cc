#include "embedding/embedded_qubo.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <deque>
#include <tuple>
#include <utility>

#include "util/fault.h"
#include "util/string_util.h"

namespace qmqo {
namespace embedding {
namespace {

/// Fills `layout` with everything a `ReweightFrom` replay needs. `physical`
/// is the freshly compiled physical problem (finalizing it here is free —
/// the sampler would do it anyway), `placements` are the hardware-id
/// coupler selections aligned with `logical.interactions()`, and the tree
/// edges arrive in the BFS discovery order Create added them.
void CaptureLayout(const qubo::QuboProblem& physical,
                   const std::vector<chimera::QubitId>& used_qubits,
                   const std::vector<int>& compact_index,
                   const std::vector<std::vector<int>>& chains,
                   const qubo::QuboProblem& logical,
                   const std::vector<CrossChainPlacement>& placements,
                   std::vector<int32_t> tree_offsets,
                   std::vector<EmbeddedLayout::TreeEdge> tree_edges,
                   EmbeddedLayout* layout) {
  const std::vector<qubo::Interaction>& terms = logical.interactions();
  layout->num_logical_vars = logical.num_vars();
  layout->pattern_i.resize(terms.size());
  layout->pattern_j.resize(terms.size());
  layout->complete = true;
  for (size_t t = 0; t < terms.size(); ++t) {
    layout->pattern_i[t] = terms[t].i;
    layout->pattern_j[t] = terms[t].j;
    if (terms[t].weight == 0.0) layout->complete = false;
  }
  layout->used_qubits = used_qubits;
  layout->compact_index = compact_index;
  layout->chains = chains;

  // Physical pattern skeleton: the finalized interaction list with weights
  // stripped, plus its CSR rows (pattern-only — weights are scattered into
  // fresh arrays per replay).
  const std::vector<qubo::Interaction>& phys_terms = physical.interactions();
  layout->physical_pattern = phys_terms;
  for (qubo::Interaction& term : layout->physical_pattern) term.weight = 0.0;
  const qubo::CsrGraph& csr = physical.csr();
  layout->csr_row_offsets = csr.row_offsets;
  layout->csr_neighbor_ids = csr.neighbor_ids;

  auto pattern_pos_of = [&phys_terms](int a, int b) -> int32_t {
    if (a > b) std::swap(a, b);
    auto it = std::lower_bound(
        phys_terms.begin(), phys_terms.end(), std::make_pair(a, b),
        [](const qubo::Interaction& x, const std::pair<int, int>& key) {
          return std::tie(x.i, x.j) < std::tie(key.first, key.second);
        });
    assert(it != phys_terms.end());
    return static_cast<int32_t>(it - phys_terms.begin());
  };
  auto csr_slot_of = [&csr](int row, int other) -> int32_t {
    const qubo::VarId* begin =
        csr.neighbor_ids.data() + csr.row_offsets[static_cast<size_t>(row)];
    const qubo::VarId* end =
        csr.neighbor_ids.data() +
        csr.row_offsets[static_cast<size_t>(row) + 1];
    const qubo::VarId* slot = std::lower_bound(begin, end, other);
    return static_cast<int32_t>(slot - csr.neighbor_ids.data());
  };

  layout->cross_a.assign(terms.size(), -1);
  layout->cross_b.assign(terms.size(), -1);
  layout->cross_pattern_pos.assign(terms.size(), -1);
  // (member, other endpoint, term) triples of every placed coupler, from
  // both endpoints' perspectives.
  std::vector<std::array<int32_t, 3>> incident;
  incident.reserve(2 * terms.size());
  for (size_t t = 0; t < terms.size(); ++t) {
    if (placements[t].qubit_a < 0) continue;  // zero-weight term, unplaced
    int a = compact_index[static_cast<size_t>(placements[t].qubit_a)];
    int b = compact_index[static_cast<size_t>(placements[t].qubit_b)];
    layout->cross_a[t] = a;
    layout->cross_b[t] = b;
    layout->cross_pattern_pos[t] = pattern_pos_of(a, b);
    incident.push_back({static_cast<int32_t>(a), static_cast<int32_t>(b),
                        static_cast<int32_t>(t)});
    incident.push_back({static_cast<int32_t>(b), static_cast<int32_t>(a),
                        static_cast<int32_t>(t)});
  }
  for (EmbeddedLayout::TreeEdge& edge : tree_edges) {
    edge.pattern_pos = pattern_pos_of(edge.a, edge.b);
  }
  layout->tree_offsets = std::move(tree_offsets);
  layout->tree_edges = std::move(tree_edges);

  const size_t num_phys = used_qubits.size();
  layout->member_tree_count.assign(num_phys, 0);
  for (const EmbeddedLayout::TreeEdge& edge : layout->tree_edges) {
    ++layout->member_tree_count[static_cast<size_t>(edge.a)];
    ++layout->member_tree_count[static_cast<size_t>(edge.b)];
  }

  // Sorting by (member, other) reproduces the neighbor-id order of the
  // step-2-only CSR rows that Create's Choi sums iterate.
  std::sort(incident.begin(), incident.end());
  layout->member_cross_offsets.assign(num_phys + 1, 0);
  layout->member_cross_terms.resize(incident.size());
  for (size_t k = 0; k < incident.size(); ++k) {
    ++layout->member_cross_offsets[static_cast<size_t>(incident[k][0]) + 1];
    layout->member_cross_terms[k] = incident[k][2];
  }
  for (size_t m = 0; m < num_phys; ++m) {
    layout->member_cross_offsets[m + 1] += layout->member_cross_offsets[m];
  }

  layout->csr_slot_a.resize(phys_terms.size());
  layout->csr_slot_b.resize(phys_terms.size());
  for (size_t p = 0; p < phys_terms.size(); ++p) {
    layout->csr_slot_a[p] = csr_slot_of(phys_terms[p].i, phys_terms[p].j);
    layout->csr_slot_b[p] = csr_slot_of(phys_terms[p].j, phys_terms[p].i);
  }
}

}  // namespace

Result<EmbeddedQubo> EmbeddedQubo::Create(const qubo::QuboProblem& logical,
                                          const Embedding& embedding,
                                          const chimera::ChimeraGraph& graph,
                                          const EmbeddedQuboOptions& options,
                                          EmbeddedLayout* layout_out) {
  if (options.epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (options.chain_strength_scale < 0.0) {
    return Status::InvalidArgument("chain_strength_scale must be >= 0");
  }
  if (options.faults != nullptr) {
    QMQO_RETURN_IF_ERROR(
        options.faults->MaybeFail("embed.compile", options.fault_key));
  }
  if (logical.num_vars() != embedding.num_vars()) {
    return Status::InvalidArgument(
        StrFormat("embedding has %d chains, problem has %d variables",
                  embedding.num_vars(), logical.num_vars()));
  }
  QMQO_RETURN_IF_ERROR(embedding.VerifyStructure(graph));
  std::vector<int> owner = embedding.QubitToVar(graph);
  // One flat pass selects every cross-chain coupler (and proves one exists
  // per nonzero term — the check VerifyForProblem used to repeat with a
  // second scan).
  QMQO_ASSIGN_OR_RETURN(
      std::vector<CrossChainPlacement> placements,
      PlaceCrossChainCouplers(embedding, graph, logical, owner));

  const int num_vars = logical.num_vars();
  // Compact index space over used qubits, ordered by hardware id.
  std::vector<chimera::QubitId> used;
  for (int var = 0; var < num_vars; ++var) {
    const Chain& chain = embedding.chain(var);
    used.insert(used.end(), chain.qubits.begin(), chain.qubits.end());
  }
  std::sort(used.begin(), used.end());
  std::vector<int> compact_index(static_cast<size_t>(graph.num_qubits()), -1);
  for (size_t i = 0; i < used.size(); ++i) {
    compact_index[static_cast<size_t>(used[i])] = static_cast<int>(i);
  }

  EmbeddedQubo out(logical, qubo::QuboProblem(static_cast<int>(used.size())));
  out.used_qubits_ = std::move(used);
  out.compact_index_ = std::move(compact_index);
  out.chains_.resize(static_cast<size_t>(num_vars));
  for (int var = 0; var < num_vars; ++var) {
    for (chimera::QubitId q : embedding.chain(var).qubits) {
      out.chains_[static_cast<size_t>(var)].push_back(out.compact_of(q));
    }
  }

  // Step 1: distribute linear weights over chains.
  for (int var = 0; var < num_vars; ++var) {
    double w = logical.linear(var);
    const auto& members = out.chains_[static_cast<size_t>(var)];
    if (w == 0.0) continue;
    double share = w / static_cast<double>(members.size());
    for (int member : members) {
      out.physical_.AddLinear(member, share);
    }
  }

  // Step 2: each logical quadratic weight goes on its selected coupler.
  const std::vector<qubo::Interaction>& terms = logical.interactions();
  for (size_t t = 0; t < terms.size(); ++t) {
    if (terms[t].weight == 0.0) continue;
    out.physical_.AddQuadratic(out.compact_of(placements[t].qubit_a),
                               out.compact_of(placements[t].qubit_b),
                               terms[t].weight);
  }

  // Chain strengths via Choi's bound, computed *before* the equality
  // gadgets are added so `neighbors` sees only problem couplings.
  out.chain_strength_.assign(static_cast<size_t>(num_vars), 0.0);
  for (int var = 0; var < num_vars; ++var) {
    const auto& members = out.chains_[static_cast<size_t>(var)];
    double sum_up = 0.0;    // sum of U_{0->1}
    double sum_down = 0.0;  // sum of U_{1->0}
    for (int member : members) {
      double v = out.physical_.linear(member);
      double pos = 0.0;
      double neg = 0.0;
      for (const auto& [other, w] : out.physical_.neighbors(member)) {
        // Neighbors inside the chain do not exist yet; every neighbor here
        // crosses to another chain.
        (void)other;
        if (w > 0.0) {
          pos += w;
        } else {
          neg += -w;
        }
      }
      sum_up += std::max(0.0, v + pos);
      sum_down += std::max(0.0, -v + neg);
    }
    double u = std::min(sum_up, sum_down);
    out.chain_strength_[static_cast<size_t>(var)] =
        std::max(options.epsilon,
                 options.chain_strength_scale * u + options.epsilon);
  }
  if (options.uniform_chain_strength) {
    double global = 0.0;
    for (double s : out.chain_strength_) global = std::max(global, s);
    std::fill(out.chain_strength_.begin(), out.chain_strength_.end(), global);
  }

  // Step 3: ferromagnetic equality gadgets on a spanning tree of each chain.
  // When a layout is being captured, the discovery order of the tree edges
  // is recorded — the linear terms accumulate one `+= strength` per edge,
  // so a replay must add them the same way.
  std::vector<int32_t> tree_offsets(static_cast<size_t>(num_vars) + 1, 0);
  std::vector<EmbeddedLayout::TreeEdge> tree_edges;
  for (int var = 0; var < num_vars; ++var) {
    const Chain& chain = embedding.chain(var);
    tree_offsets[static_cast<size_t>(var) + 1] =
        static_cast<int32_t>(tree_edges.size());
    if (chain.size() <= 1) continue;
    double strength = out.chain_strength_[static_cast<size_t>(var)];
    // BFS spanning tree over usable couplers within the chain.
    std::vector<uint8_t> visited(chain.qubits.size(), 0);
    std::deque<size_t> frontier{0};
    visited[0] = 1;
    int edges = 0;
    while (!frontier.empty()) {
      size_t at = frontier.front();
      frontier.pop_front();
      chimera::QubitId qa = chain.qubits[at];
      for (size_t next = 0; next < chain.qubits.size(); ++next) {
        if (visited[next]) continue;
        chimera::QubitId qb = chain.qubits[next];
        if (!graph.CouplerUsable(qa, qb)) continue;
        visited[next] = 1;
        frontier.push_back(next);
        out.physical_.AddLinear(out.compact_of(qa), strength);
        out.physical_.AddLinear(out.compact_of(qb), strength);
        out.physical_.AddQuadratic(out.compact_of(qa), out.compact_of(qb),
                                   -2.0 * strength);
        ++edges;
        if (layout_out != nullptr) {
          EmbeddedLayout::TreeEdge edge;
          edge.a = out.compact_of(qa);
          edge.b = out.compact_of(qb);
          tree_edges.push_back(edge);
        }
      }
    }
    if (edges != chain.size() - 1) {
      // Verified connected by VerifyStructure; a mismatch means the
      // coupler map changed between verification and compilation.
      return Status::Internal(StrFormat(
          "chain of variable %d is not connected over usable couplers "
          "(%d spanning edges for %d qubits)",
          var, edges, static_cast<int>(chain.size())));
    }
    tree_offsets[static_cast<size_t>(var) + 1] =
        static_cast<int32_t>(tree_edges.size());
  }
  if (layout_out != nullptr) {
    CaptureLayout(out.physical_, out.used_qubits_, out.compact_index_,
                  out.chains_, logical, placements, std::move(tree_offsets),
                  std::move(tree_edges), layout_out);
  }
  return out;
}

Result<EmbeddedQubo> EmbeddedQubo::ReweightFrom(
    const EmbeddedLayout& layout, const qubo::QuboProblem& logical,
    const EmbeddedQuboOptions& options) {
  if (options.epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (options.chain_strength_scale < 0.0) {
    return Status::InvalidArgument("chain_strength_scale must be >= 0");
  }
  if (options.faults != nullptr) {
    QMQO_RETURN_IF_ERROR(
        options.faults->MaybeFail("embed.compile", options.fault_key));
  }
  if (!layout.complete) {
    return Status::FailedPrecondition(
        "layout is incomplete (captured from a problem with zero-weight "
        "quadratic terms); embed from scratch instead");
  }
  if (logical.num_vars() != layout.num_logical_vars) {
    return Status::InvalidArgument(
        StrFormat("layout was captured for %d variables, problem has %d",
                  layout.num_logical_vars, logical.num_vars()));
  }
  const std::vector<qubo::Interaction>& terms = logical.interactions();
  if (terms.size() != layout.pattern_i.size()) {
    return Status::InvalidArgument(
        StrFormat("layout was captured for %zu interactions, problem has %zu",
                  layout.pattern_i.size(), terms.size()));
  }
  for (size_t t = 0; t < terms.size(); ++t) {
    if (terms[t].i != layout.pattern_i[t] ||
        terms[t].j != layout.pattern_j[t]) {
      return Status::InvalidArgument(StrFormat(
          "interaction pattern mismatch at term %zu: layout has (%d,%d), "
          "problem has (%d,%d)",
          t, layout.pattern_i[t], layout.pattern_j[t], terms[t].i,
          terms[t].j));
    }
    if (terms[t].weight == 0.0) {
      return Status::FailedPrecondition(StrFormat(
          "quadratic term (%d,%d) has zero weight; Create drops zero-weight "
          "terms, so a cached layout cannot replay it — embed from scratch",
          terms[t].i, terms[t].j));
    }
  }

  const int num_vars = layout.num_logical_vars;
  const size_t num_phys = layout.used_qubits.size();

  // Step-1 replay: chain shares of the linear weights. `0.0 + share` is
  // bitwise `share`, matching Create's AddLinear on a fresh problem.
  std::vector<double> linear(num_phys, 0.0);
  for (int var = 0; var < num_vars; ++var) {
    double w = logical.linear(var);
    if (w == 0.0) continue;
    const std::vector<int>& members = layout.chains[static_cast<size_t>(var)];
    double share = w / static_cast<double>(members.size());
    for (int member : members) {
      linear[static_cast<size_t>(member)] += share;
    }
  }

  // Choi chain strengths, replayed in Create's exact accumulation order:
  // members in chain order, incident cross couplers sorted by the other
  // endpoint (= the neighbor-id order of the step-2-only CSR rows).
  std::vector<double> strength(static_cast<size_t>(num_vars), 0.0);
  for (int var = 0; var < num_vars; ++var) {
    const std::vector<int>& members = layout.chains[static_cast<size_t>(var)];
    double sum_up = 0.0;    // sum of U_{0->1}
    double sum_down = 0.0;  // sum of U_{1->0}
    for (int member : members) {
      double v = linear[static_cast<size_t>(member)];
      double pos = 0.0;
      double neg = 0.0;
      for (int32_t e = layout.member_cross_offsets[static_cast<size_t>(member)];
           e < layout.member_cross_offsets[static_cast<size_t>(member) + 1];
           ++e) {
        double w =
            terms[static_cast<size_t>(layout.member_cross_terms
                                          [static_cast<size_t>(e)])].weight;
        if (w > 0.0) {
          pos += w;
        } else {
          neg += -w;
        }
      }
      sum_up += std::max(0.0, v + pos);
      sum_down += std::max(0.0, -v + neg);
    }
    double u = std::min(sum_up, sum_down);
    strength[static_cast<size_t>(var)] =
        std::max(options.epsilon,
                 options.chain_strength_scale * u + options.epsilon);
  }
  if (options.uniform_chain_strength) {
    double global = 0.0;
    for (double s : strength) global = std::max(global, s);
    std::fill(strength.begin(), strength.end(), global);
  }

  // Step-3 replay: each tree edge adds `strength` to both endpoints' linear
  // terms, in the recorded discovery order (equal addends per member, so
  // the per-member count determines the float result exactly).
  for (int var = 0; var < num_vars; ++var) {
    double s = strength[static_cast<size_t>(var)];
    for (int32_t e = layout.tree_offsets[static_cast<size_t>(var)];
         e < layout.tree_offsets[static_cast<size_t>(var) + 1]; ++e) {
      const EmbeddedLayout::TreeEdge& edge =
          layout.tree_edges[static_cast<size_t>(e)];
      linear[static_cast<size_t>(edge.a)] += s;
      linear[static_cast<size_t>(edge.b)] += s;
    }
  }

  // Quadratic weights by pattern slot: each physical coupler received
  // exactly one AddQuadratic in Create, so positional fill is bit-exact.
  std::vector<qubo::Interaction> interactions = layout.physical_pattern;
  for (size_t t = 0; t < terms.size(); ++t) {
    interactions[static_cast<size_t>(layout.cross_pattern_pos[t])].weight =
        terms[t].weight;
  }
  for (int var = 0; var < num_vars; ++var) {
    double w = -2.0 * strength[static_cast<size_t>(var)];
    for (int32_t e = layout.tree_offsets[static_cast<size_t>(var)];
         e < layout.tree_offsets[static_cast<size_t>(var) + 1]; ++e) {
      const EmbeddedLayout::TreeEdge& edge =
          layout.tree_edges[static_cast<size_t>(e)];
      interactions[static_cast<size_t>(edge.pattern_pos)].weight = w;
    }
  }
  qubo::CsrGraph csr;
  csr.row_offsets = layout.csr_row_offsets;
  csr.neighbor_ids = layout.csr_neighbor_ids;
  csr.weights.resize(layout.csr_neighbor_ids.size());
  for (size_t p = 0; p < interactions.size(); ++p) {
    csr.weights[static_cast<size_t>(layout.csr_slot_a[p])] =
        interactions[p].weight;
    csr.weights[static_cast<size_t>(layout.csr_slot_b[p])] =
        interactions[p].weight;
  }

  EmbeddedQubo out(logical,
                   qubo::QuboProblem::FromSorted(
                       static_cast<int>(num_phys), std::move(linear),
                       std::move(interactions), std::move(csr)));
  out.used_qubits_ = layout.used_qubits;
  out.compact_index_ = layout.compact_index;
  out.chains_ = layout.chains;
  out.chain_strength_ = std::move(strength);
  return out;
}

bool EmbeddedQubo::ChainsConsistent(
    const std::vector<uint8_t>& physical_x) const {
  for (const auto& members : chains_) {
    uint8_t first = physical_x[static_cast<size_t>(members.front())];
    for (int member : members) {
      if (physical_x[static_cast<size_t>(member)] != first) return false;
    }
  }
  return true;
}

double EmbeddedQubo::BrokenChainFraction(
    const std::vector<uint8_t>& physical_x) const {
  if (chains_.empty()) return 0.0;
  int broken = 0;
  for (const auto& members : chains_) {
    uint8_t first = physical_x[static_cast<size_t>(members.front())];
    for (int member : members) {
      if (physical_x[static_cast<size_t>(member)] != first) {
        ++broken;
        break;
      }
    }
  }
  return static_cast<double>(broken) / static_cast<double>(chains_.size());
}

Result<std::vector<uint8_t>> EmbeddedQubo::UnembedStrict(
    const std::vector<uint8_t>& physical_x) const {
  std::vector<uint8_t> logical_x(chains_.size(), 0);
  for (size_t var = 0; var < chains_.size(); ++var) {
    uint8_t first = physical_x[static_cast<size_t>(chains_[var].front())];
    for (int member : chains_[var]) {
      if (physical_x[static_cast<size_t>(member)] != first) {
        return Status::FailedPrecondition(
            StrFormat("chain of variable %zu is inconsistent", var));
      }
    }
    logical_x[var] = first;
  }
  return logical_x;
}

std::vector<uint8_t> EmbeddedQubo::Unembed(
    const std::vector<uint8_t>& physical_x) const {
  std::vector<uint8_t> logical_x(chains_.size(), 0);
  for (size_t var = 0; var < chains_.size(); ++var) {
    int ones = 0;
    for (int member : chains_[var]) {
      ones += physical_x[static_cast<size_t>(member)] ? 1 : 0;
    }
    logical_x[var] =
        2 * ones > static_cast<int>(chains_[var].size()) ? 1 : 0;
  }
  // Greedy descent on the logical energy repairs majority-vote errors on
  // broken chains. Terminates: each flip strictly lowers the energy.
  // FlipDelta(v) reads only v and its logical neighbours, so a variable
  // whose last evaluation did not flip it, and none of whose neighbours
  // flipped since, would return the same delta: it stays clean and is
  // skipped. The rounds, the visiting order and the flips are those of
  // re-evaluating every variable every round.
  const qubo::CsrGraph& csr = logical_.csr();
  std::vector<uint8_t> dirty(logical_x.size(), 1);
  bool improved = true;
  int guard = 0;
  const int max_rounds = 100;
  while (improved && guard++ < max_rounds) {
    improved = false;
    for (int var = 0; var < logical_.num_vars(); ++var) {
      if (!dirty[static_cast<size_t>(var)]) continue;
      if (logical_.FlipDelta(logical_x, var) < 0.0) {
        logical_x[static_cast<size_t>(var)] ^= 1;
        improved = true;
        for (int32_t e = csr.row_offsets[static_cast<size_t>(var)];
             e < csr.row_offsets[static_cast<size_t>(var) + 1]; ++e) {
          dirty[static_cast<size_t>(csr.neighbor_ids[static_cast<size_t>(e)])] =
              1;
        }
      } else {
        dirty[static_cast<size_t>(var)] = 0;
      }
    }
  }
  return logical_x;
}

std::vector<uint8_t> EmbeddedQubo::EmbedAssignment(
    const std::vector<uint8_t>& logical_x) const {
  assert(logical_x.size() == chains_.size());
  std::vector<uint8_t> physical_x(used_qubits_.size(), 0);
  for (size_t var = 0; var < chains_.size(); ++var) {
    for (int member : chains_[var]) {
      physical_x[static_cast<size_t>(member)] = logical_x[var];
    }
  }
  return physical_x;
}

}  // namespace embedding
}  // namespace qmqo
