#include "qubo/ising.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <tuple>

namespace qmqo {
namespace qubo {

IsingProblem::IsingProblem(int num_spins)
    : h_(static_cast<size_t>(num_spins), 0.0) {
  assert(num_spins >= 0);
}

uint64_t IsingProblem::PairKey(VarId a, VarId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint64_t>(static_cast<uint32_t>(b));
}

void IsingProblem::AddField(VarId i, double w) {
  h_[static_cast<size_t>(i)] += w;
  finalized_ = false;
}

void IsingProblem::AddCoupling(VarId i, VarId j, double w) {
  assert(i != j);
  j_[PairKey(i, j)] += w;
  finalized_ = false;
}

double IsingProblem::coupling(VarId i, VarId j) const {
  auto it = j_.find(PairKey(i, j));
  return it == j_.end() ? 0.0 : it->second;
}

void IsingProblem::EnsureFinalized() const {
  if (finalized_) return;
  couplings_.clear();
  couplings_.reserve(j_.size());
  for (const auto& [key, w] : j_) {
    Interaction term;
    term.i = static_cast<VarId>(key >> 32);
    term.j = static_cast<VarId>(key & 0xffffffffu);
    term.weight = w;
    couplings_.push_back(term);
  }
  std::sort(couplings_.begin(), couplings_.end(),
            [](const Interaction& a, const Interaction& b) {
              return std::tie(a.i, a.j) < std::tie(b.i, b.j);
            });
  csr_.Build(num_spins(), couplings_);
  finalized_ = true;
}

const std::vector<Interaction>& IsingProblem::couplings() const {
  EnsureFinalized();
  return couplings_;
}

NeighborView IsingProblem::neighbors(VarId i) const {
  EnsureFinalized();
  return csr_.row(i);
}

const CsrGraph& IsingProblem::csr() const {
  EnsureFinalized();
  return csr_;
}

double IsingProblem::Energy(const std::vector<int8_t>& s) const {
  assert(s.size() == h_.size());
  return IsingView(*this).Energy(s.data());
}

double IsingView::Energy(const int8_t* s) const {
  double energy = 0.0;
  for (VarId i = 0; i < num_spins(); ++i) {
    energy += fields[i] * static_cast<double>(s[i]);
  }
  for (VarId i = 0; i < num_spins(); ++i) {
    for (int32_t e = csr.row_offsets[i]; e < csr.row_offsets[i + 1]; ++e) {
      const VarId j = csr.neighbor_ids[e];
      if (j > i) {
        energy += csr.weights[e] * static_cast<double>(s[i]) *
                  static_cast<double>(s[j]);
      }
    }
  }
  return energy;
}

double IsingProblem::FlipDelta(const std::vector<int8_t>& s, VarId i) const {
  EnsureFinalized();
  const int32_t* offsets = csr_.row_offsets.data();
  const VarId* ids = csr_.neighbor_ids.data();
  const double* weights = csr_.weights.data();
  double field = h_[static_cast<size_t>(i)];
  for (int32_t e = offsets[i]; e < offsets[i + 1]; ++e) {
    field += weights[e] * static_cast<double>(s[static_cast<size_t>(ids[e])]);
  }
  // Flipping s_i negates its contribution s_i * field.
  return -2.0 * static_cast<double>(s[static_cast<size_t>(i)]) * field;
}

double IsingProblem::MaxAbsField() const {
  double best = 0.0;
  for (double v : h_) best = std::max(best, std::fabs(v));
  return best;
}

double IsingProblem::MaxAbsCoupling() const {
  double best = 0.0;
  for (const auto& [key, w] : j_) {
    (void)key;
    best = std::max(best, std::fabs(w));
  }
  return best;
}

IsingWithOffset QuboToIsing(const QuboProblem& qubo) {
  IsingWithOffset out{IsingProblem(qubo.num_vars()), 0.0};
  // x_i = (1 + s_i)/2:
  //   w x_i         = w/2 s_i + w/2
  //   w x_i x_j     = w/4 s_i s_j + w/4 s_i + w/4 s_j + w/4
  for (VarId i = 0; i < qubo.num_vars(); ++i) {
    double w = qubo.linear(i);
    if (w != 0.0) {
      out.ising.AddField(i, w / 2.0);
      out.offset += w / 2.0;
    }
  }
  for (const Interaction& term : qubo.interactions()) {
    out.ising.AddCoupling(term.i, term.j, term.weight / 4.0);
    out.ising.AddField(term.i, term.weight / 4.0);
    out.ising.AddField(term.j, term.weight / 4.0);
    out.offset += term.weight / 4.0;
  }
  return out;
}

QuboWithOffset IsingToQubo(const IsingProblem& ising) {
  QuboWithOffset out{QuboProblem(ising.num_spins()), 0.0};
  // s_i = 2 x_i − 1:
  //   h s_i        = 2h x_i − h
  //   J s_i s_j    = 4J x_i x_j − 2J x_i − 2J x_j + J
  for (VarId i = 0; i < ising.num_spins(); ++i) {
    double h = ising.field(i);
    if (h != 0.0) {
      out.qubo.AddLinear(i, 2.0 * h);
      out.offset -= h;
    }
  }
  for (const Interaction& term : ising.couplings()) {
    out.qubo.AddQuadratic(term.i, term.j, 4.0 * term.weight);
    out.qubo.AddLinear(term.i, -2.0 * term.weight);
    out.qubo.AddLinear(term.j, -2.0 * term.weight);
    out.offset += term.weight;
  }
  return out;
}

std::vector<int8_t> AssignmentToSpins(const std::vector<uint8_t>& x) {
  std::vector<int8_t> s(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    s[i] = x[i] ? int8_t{1} : int8_t{-1};
  }
  return s;
}

std::vector<uint8_t> SpinsToAssignment(const std::vector<int8_t>& s) {
  std::vector<uint8_t> x(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    x[i] = s[i] > 0 ? uint8_t{1} : uint8_t{0};
  }
  return x;
}

}  // namespace qubo
}  // namespace qmqo
