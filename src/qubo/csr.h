#ifndef QMQO_QUBO_CSR_H_
#define QMQO_QUBO_CSR_H_

/// \file csr.h
/// Compressed sparse row (CSR) adjacency for QUBO/Ising problems.
///
/// The annealing kernels are memory-bandwidth bound: a sweep reads every
/// neighbor list once. The previous `vector<vector<pair<VarId, double>>>`
/// layout scatters each row across the heap and interleaves 4-byte ids with
/// 8-byte weights; CSR packs the whole graph into three contiguous arrays
/// (`row_offsets`, `neighbor_ids`, `weights`) so a sweep is two sequential
/// streams plus one gather. Rows keep neighbors sorted by id, matching the
/// iteration order of the old adjacency so numerical results are
/// bit-identical.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace qmqo {
namespace qubo {

/// Index of a binary variable / spin.
using VarId = int;

/// One quadratic term w * x_i * x_j with i < j.
struct Interaction {
  VarId i = -1;
  VarId j = -1;
  double weight = 0.0;
};

/// A lightweight iterable view of one CSR row, yielding (neighbor, weight)
/// pairs. Supports the same access patterns as the old
/// `vector<pair<VarId, double>>` rows (range-for, size(), operator[]).
class NeighborView {
 public:
  class Iterator {
   public:
    Iterator(const VarId* ids, const double* weights)
        : ids_(ids), weights_(weights) {}
    std::pair<VarId, double> operator*() const { return {*ids_, *weights_}; }
    Iterator& operator++() {
      ++ids_;
      ++weights_;
      return *this;
    }
    bool operator!=(const Iterator& other) const { return ids_ != other.ids_; }
    bool operator==(const Iterator& other) const { return ids_ == other.ids_; }

   private:
    const VarId* ids_;
    const double* weights_;
  };

  NeighborView(const VarId* ids, const double* weights, size_t size)
      : ids_(ids), weights_(weights), size_(size) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::pair<VarId, double> operator[](size_t k) const {
    return {ids_[k], weights_[k]};
  }
  Iterator begin() const { return Iterator(ids_, weights_); }
  Iterator end() const { return Iterator(ids_ + size_, weights_ + size_); }

 private:
  const VarId* ids_;
  const double* weights_;
  size_t size_;
};

/// Symmetric sparse graph in CSR form. Each undirected interaction (i, j)
/// appears twice: j in row i and i in row j. Rows are sorted by neighbor id.
struct CsrGraph {
  /// row_offsets[i] .. row_offsets[i+1] delimit row i; size num_vars + 1.
  std::vector<int32_t> row_offsets;
  /// Flat neighbor ids, 2 * num_interactions entries.
  std::vector<VarId> neighbor_ids;
  /// Weights aligned with `neighbor_ids`.
  std::vector<double> weights;

  /// Rebuilds from a lexicographically sorted (i < j) interaction list.
  void Build(int num_vars, const std::vector<Interaction>& interactions);

  int num_vars() const { return static_cast<int>(row_offsets.size()) - 1; }

  int degree(VarId i) const {
    return row_offsets[static_cast<size_t>(i) + 1] -
           row_offsets[static_cast<size_t>(i)];
  }

  NeighborView row(VarId i) const {
    int32_t begin = row_offsets[static_cast<size_t>(i)];
    int32_t end = row_offsets[static_cast<size_t>(i) + 1];
    return NeighborView(neighbor_ids.data() + begin, weights.data() + begin,
                        static_cast<size_t>(end - begin));
  }
};

/// A non-owning view of CSR arrays: a `CsrGraph`'s own, or weights laid
/// over another graph's structure (the device model's programmed gauges
/// share the converted problem's rows). Implicit from `CsrGraph`, like
/// `std::string_view` from a string; valid while the arrays live.
struct CsrView {
  CsrView() = default;
  CsrView(int num_vars_in, const int32_t* row_offsets_in,
          const VarId* neighbor_ids_in, const double* weights_in)
      : num_vars(num_vars_in),
        row_offsets(row_offsets_in),
        neighbor_ids(neighbor_ids_in),
        weights(weights_in) {}
  CsrView(const CsrGraph& graph)  // NOLINT(google-explicit-constructor)
      : CsrView(graph.num_vars(), graph.row_offsets.data(),
                graph.neighbor_ids.data(), graph.weights.data()) {}

  int num_vars = 0;
  const int32_t* row_offsets = nullptr;
  const VarId* neighbor_ids = nullptr;
  const double* weights = nullptr;
};

}  // namespace qubo
}  // namespace qmqo

#endif  // QMQO_QUBO_CSR_H_
