#ifndef QMQO_QUBO_ISING_H_
#define QMQO_QUBO_ISING_H_

/// \file ising.h
/// Ising-model problems and exact QUBO <-> Ising conversion.
///
/// The D-Wave hardware natively minimizes an Ising Hamiltonian
///   H(s) = sum_i h_i s_i + sum_{i<j} J_ij s_i s_j,  s_i in {-1, +1}.
/// QUBO and Ising are related by the change of variables x = (1 + s) / 2,
/// which maps energies exactly up to a constant `offset` that both
/// directions of the conversion track, so optimal values can be compared
/// across representations in tests.

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "qubo/qubo.h"

namespace qmqo {
namespace qubo {

/// A sparse Ising instance over spins s_i in {-1, +1}.
class IsingProblem {
 public:
  explicit IsingProblem(int num_spins);

  int num_spins() const { return static_cast<int>(h_.size()); }

  /// Adds `w` to the field h_i.
  void AddField(VarId i, double w);

  /// Adds `w` to the coupling J_ij (i != j, order irrelevant).
  void AddCoupling(VarId i, VarId j, double w);

  double field(VarId i) const { return h_[static_cast<size_t>(i)]; }
  double coupling(VarId i, VarId j) const;

  /// All couplings with i < j.
  const std::vector<Interaction>& couplings() const;

  /// Neighbors of spin i as (j, J_ij) pairs (a view into the CSR arrays,
  /// sorted by neighbor id).
  NeighborView neighbors(VarId i) const;

  /// The CSR adjacency used by the annealing kernels. Valid until the next
  /// mutation.
  const CsrGraph& csr() const;

  /// The fields as a flat array (index = spin id).
  const std::vector<double>& fields() const { return h_; }

  /// Builds the evaluation structures now (idempotent). Call before
  /// sharing a const reference across threads.
  void Finalize() const { EnsureFinalized(); }

  /// Evaluates H(s) for spins in {-1, +1} (stored as int8_t).
  double Energy(const std::vector<int8_t>& s) const;

  /// Energy change if spin i were flipped. O(degree(i)).
  double FlipDelta(const std::vector<int8_t>& s, VarId i) const;

  /// Largest |h| and largest |J| (for hardware-range scaling).
  double MaxAbsField() const;
  double MaxAbsCoupling() const;

 private:
  static uint64_t PairKey(VarId a, VarId b);
  void EnsureFinalized() const;

  std::vector<double> h_;
  std::unordered_map<uint64_t, double> j_;

  mutable bool finalized_ = false;
  mutable std::vector<Interaction> couplings_;
  mutable CsrGraph csr_;
};

/// A non-owning flat view of an Ising problem: the fields plus a CSR
/// adjacency, which is everything the annealing kernels and
/// `SuggestBetaRange` read. Implicit from an `IsingProblem` (finalizing
/// it); the device model instead lays each programmed gauge's flat arrays
/// over the converted problem's CSR structure. Valid while the arrays
/// live.
struct IsingView {
  IsingView(const CsrView& csr_in, const double* fields_in)
      : csr(csr_in), fields(fields_in) {}
  IsingView(const IsingProblem& ising)  // NOLINT(google-explicit-constructor)
      : IsingView(ising.csr(), ising.fields().data()) {}

  int num_spins() const { return csr.num_vars; }

  /// H(s): the fields first, then each coupling once in ascending (i, j)
  /// order — the summation order of the sorted coupling list.
  double Energy(const int8_t* s) const;

  CsrView csr;
  const double* fields = nullptr;
};

/// An Ising instance together with the constant separating its energy scale
/// from the QUBO it was derived from: E_qubo(x) = H(s(x)) + offset.
struct IsingWithOffset {
  IsingProblem ising;
  double offset = 0.0;
};

/// Converts QUBO -> Ising exactly (x = (1+s)/2).
IsingWithOffset QuboToIsing(const QuboProblem& qubo);

/// The reverse conversion; `E_ising(s) = E_qubo(x(s)) + offset`.
struct QuboWithOffset {
  QuboProblem qubo;
  double offset = 0.0;
};
QuboWithOffset IsingToQubo(const IsingProblem& ising);

/// Maps a QUBO assignment to spins (0 -> -1, 1 -> +1).
std::vector<int8_t> AssignmentToSpins(const std::vector<uint8_t>& x);

/// Maps spins to a QUBO assignment (-1 -> 0, +1 -> 1).
std::vector<uint8_t> SpinsToAssignment(const std::vector<int8_t>& s);

}  // namespace qubo
}  // namespace qmqo

#endif  // QMQO_QUBO_ISING_H_
