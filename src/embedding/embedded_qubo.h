#ifndef QMQO_EMBEDDING_EMBEDDED_QUBO_H_
#define QMQO_EMBEDDING_EMBEDDED_QUBO_H_

/// \file embedded_qubo.h
/// The physical mapping (Section 5): compiling a logical QUBO plus an
/// embedding into the *physical* energy formula the annealer actually
/// minimizes.
///
/// Construction follows the paper's three steps:
///  1. each logical linear weight w_i is split evenly (w_i / |B|) over the
///     chain B representing variable i;
///  2. each logical quadratic weight w_ij is placed on one usable coupler
///     joining the two chains;
///  3. every intra-chain (spanning-tree) coupler receives the ferromagnetic
///     equality gadget  w_B * (b1 + b2 − 2 b1 b2),  which is 0 for equal
///     values and w_B for a "broken" chain.
///
/// The chain strength w_B is set per chain with Choi's parameter-setting
/// bound: with U_{0->1}(b) = v + sum_i max(v_i, 0) (and the analogue for
/// 1->0) over the qubit weight v and couplings v_i leaving the chain,
///   U = min( sum_b U_{1->0}(b),  sum_b U_{0->1}(b) ),  w_B = U + epsilon,
/// which guarantees that the physical ground state has consistent chains.
///
/// For any chain-consistent physical assignment, the physical energy equals
/// the logical energy exactly; tests verify both properties exhaustively on
/// small instances.
///
/// Physical variables use a *compact* index space covering only the qubits
/// actually used by chains, so annealing never wastes sweeps on idle qubits;
/// `qubit_of` / `compact_of` translate to hardware ids.

#include <vector>

#include "chimera/topology.h"
#include "embedding/embedding.h"
#include "qubo/qubo.h"
#include "util/status.h"

namespace qmqo {
namespace util {
class FaultInjector;
}  // namespace util

namespace embedding {

/// Tunables of the physical mapping.
struct EmbeddedQuboOptions {
  /// Slack above the chain-strength lower bound (paper: 0.25).
  double epsilon = 0.25;
  /// Multiplies the Choi bound; 1.0 is the paper setting. Values < 1 weaken
  /// chains (ablation: broken chains), large values blunt the energy signal.
  double chain_strength_scale = 1.0;
  /// Use one global strength (the max over chains) instead of per-chain
  /// strengths (ablation).
  bool uniform_chain_strength = false;
  /// Fault injection (never owned; null = no faults). Site
  /// "embed.compile" (key: `fault_key`) fails `Create` with a typed error —
  /// the hook the chaos suite uses to exercise preprocessing failures.
  const util::FaultInjector* faults = nullptr;
  /// Key passed to the "embed.compile" site; orchestrators set it to the
  /// attempt number so fail-first-N schedules apply across retries.
  uint64_t fault_key = 0;
};

/// The weight-independent part of a compiled embedding: everything
/// `EmbeddedQubo::Create` derives from the *structure* of (logical pattern,
/// chains, hardware graph) but not from the coefficients. A layout captured
/// once can be re-weighted per request (`EmbeddedQubo::ReweightFrom`),
/// skipping verification, coupler placement, and spanning-tree search — the
/// paper's gauge/chain-strength machinery already separates structure from
/// coefficients, so the replay is bit-identical to a fresh compile.
///
/// Immutable after capture; safe to share across threads by const
/// reference (the embedding cache hands out shared_ptrs).
struct EmbeddedLayout {
  /// One spanning-tree coupler inside a chain, as compact indices, plus its
  /// slot in the sorted physical interaction pattern.
  struct TreeEdge {
    int a = -1;
    int b = -1;
    int32_t pattern_pos = -1;
  };

  // ---- structure identity (checked on reuse) ----
  int num_logical_vars = 0;
  /// (i, j) of every logical interaction, in `interactions()` order.
  std::vector<qubo::VarId> pattern_i;
  std::vector<qubo::VarId> pattern_j;

  // ---- the embedding itself ----
  std::vector<chimera::QubitId> used_qubits;  ///< compact -> hardware id
  std::vector<int> compact_index;             ///< hardware id -> compact
  std::vector<std::vector<int>> chains;       ///< per var, compact indices

  // ---- replay script for the coefficient-dependent parts ----
  /// Cross-chain coupler of logical term t, as compact indices (a in
  /// chain(pattern_i[t]), b in chain(pattern_j[t])), plus its slot in the
  /// sorted physical pattern. Valid only for layouts captured with every
  /// term weight nonzero (`complete`).
  std::vector<int> cross_a;
  std::vector<int> cross_b;
  std::vector<int32_t> cross_pattern_pos;
  /// Spanning-tree edges of chain `var` live in
  /// tree_edges[tree_offsets[var] .. tree_offsets[var + 1]), in the BFS
  /// discovery order Create added them (the accumulation order matters for
  /// bit-identity of the linear terms).
  std::vector<int32_t> tree_offsets;
  std::vector<TreeEdge> tree_edges;
  /// Incident tree-edge count per compact index (each contributes one
  /// `+= strength` to that qubit's linear term).
  std::vector<int32_t> member_tree_count;
  /// Cross-chain placements incident to each compact index, sorted by the
  /// other endpoint's compact id — the exact iteration order of
  /// `physical().neighbors()` during Create's Choi chain-strength sums.
  /// Values are logical term indices (weight = that term's weight).
  std::vector<int32_t> member_cross_offsets;
  std::vector<int32_t> member_cross_terms;

  // ---- physical pattern skeleton ----
  /// Sorted (a < b lexicographic) physical interaction pattern; weights in
  /// these Interaction entries are zero and filled per re-weight.
  std::vector<qubo::Interaction> physical_pattern;
  /// CSR skeleton of the pattern (row offsets + neighbor ids, no weights).
  std::vector<int32_t> csr_row_offsets;
  std::vector<qubo::VarId> csr_neighbor_ids;
  /// The two CSR weight slots of pattern entry t (row a and row b copies).
  std::vector<int32_t> csr_slot_a;
  std::vector<int32_t> csr_slot_b;

  /// True when every logical term had nonzero weight at capture, i.e. every
  /// pattern slot has a recorded placement. Incomplete layouts cannot be
  /// re-weighted (Create skips zero-weight terms, so the replay script
  /// would not cover the pattern).
  bool complete = false;

  int num_physical_vars() const { return static_cast<int>(used_qubits.size()); }
};

/// A compiled physical QUBO with chain bookkeeping.
class EmbeddedQubo {
 public:
  /// Compiles `logical` onto the hardware through `embedding`. Fails when
  /// the embedding does not support the problem.
  ///
  /// When `layout_out` is non-null and compilation succeeds, the
  /// weight-independent layout is captured into it for later
  /// `ReweightFrom` replays (see `EmbeddedLayout::complete`).
  static Result<EmbeddedQubo> Create(
      const qubo::QuboProblem& logical, const Embedding& embedding,
      const chimera::ChimeraGraph& graph,
      const EmbeddedQuboOptions& options = EmbeddedQuboOptions(),
      EmbeddedLayout* layout_out = nullptr);

  /// Re-compiles a captured layout against the (new) coefficients of
  /// `logical`, producing an EmbeddedQubo bit-identical to what
  /// `Create(logical, ...)` would build for the same structure — without
  /// touching the hardware graph or re-running verification, placement, or
  /// spanning-tree search.
  ///
  /// Requirements: `logical` has the same variable count and interaction
  /// pattern the layout was captured from, every quadratic weight is
  /// nonzero, and the layout is `complete`. Honors the same
  /// "embed.compile" fault-injection site as `Create`.
  static Result<EmbeddedQubo> ReweightFrom(
      const EmbeddedLayout& layout, const qubo::QuboProblem& logical,
      const EmbeddedQuboOptions& options = EmbeddedQuboOptions());

  /// The physical energy formula over compact variable indices.
  const qubo::QuboProblem& physical() const { return physical_; }

  int num_physical_vars() const { return physical_.num_vars(); }
  int num_logical_vars() const { return static_cast<int>(chains_.size()); }

  /// Hardware qubit backing compact variable `i`.
  chimera::QubitId qubit_of(int compact_index) const {
    return used_qubits_[static_cast<size_t>(compact_index)];
  }

  /// Compact index of hardware qubit `q`, or -1 when unused.
  int compact_of(chimera::QubitId q) const {
    return compact_index_[static_cast<size_t>(q)];
  }

  /// Chain strength w_B chosen for logical variable `var`.
  double chain_strength(int var) const {
    return chain_strength_[static_cast<size_t>(var)];
  }

  /// Chain members of logical variable `var`, as compact indices.
  const std::vector<int>& chain_members(int var) const {
    return chains_[static_cast<size_t>(var)];
  }

  /// True when every chain is assigned a single consistent value.
  bool ChainsConsistent(const std::vector<uint8_t>& physical_x) const;

  /// Fraction of chains with inconsistent values (diagnostic).
  double BrokenChainFraction(const std::vector<uint8_t>& physical_x) const;

  /// Strict read-out: fails when any chain is inconsistent.
  Result<std::vector<uint8_t>> UnembedStrict(
      const std::vector<uint8_t>& physical_x) const;

  /// Total read-out: majority vote per chain (ties resolved toward 0),
  /// followed by one greedy-descent pass on the logical energy — the
  /// standard post-processing for broken chains. Const and thread-safe:
  /// the read-out calls it concurrently from executor workers.
  std::vector<uint8_t> Unembed(const std::vector<uint8_t>& physical_x) const;

  /// Lifts a logical assignment to the consistent physical assignment.
  std::vector<uint8_t> EmbedAssignment(
      const std::vector<uint8_t>& logical_x) const;

 private:
  // Shared by Create and ReweightFrom. Finalizing the logical copy here
  // makes `Unembed` (which evaluates it via FlipDelta) a pure read, so
  // concurrent `Unembed` calls on one instance are safe.
  EmbeddedQubo(qubo::QuboProblem logical, qubo::QuboProblem physical)
      : logical_(std::move(logical)), physical_(std::move(physical)) {
    logical_.Finalize();
  }

  // The logical problem is copied so unembedding post-processing cannot
  // dangle if the caller's problem goes away.
  qubo::QuboProblem logical_;
  qubo::QuboProblem physical_;
  std::vector<chimera::QubitId> used_qubits_;
  std::vector<int> compact_index_;
  /// chains_[var] = compact indices of the chain of logical variable var.
  std::vector<std::vector<int>> chains_;
  std::vector<double> chain_strength_;
};

}  // namespace embedding
}  // namespace qmqo

#endif  // QMQO_EMBEDDING_EMBEDDED_QUBO_H_
