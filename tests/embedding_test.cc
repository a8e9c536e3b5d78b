// Tests for minor embeddings: chain/embedding validation, TRIAD clique
// embeddings, in-cell cliques, clustered placement, pair matching,
// cross-chain coupler enumeration, and the read-out of embedded paper
// instances against a naive reference.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "embedding/capacity.h"
#include "embedding/clique_in_cell.h"
#include "embedding/clustered.h"
#include "embedding/embedded_qubo.h"
#include "embedding/embedding.h"
#include "embedding/triad.h"
#include "harness/paper_workload.h"
#include "mapping/logical_mapping.h"
#include "util/rng.h"

namespace qmqo {
namespace embedding {
namespace {

using chimera::ChimeraGraph;

/// Complete logical QUBO over n variables (every pair interacts), the
/// worst case an embedding must support.
qubo::QuboProblem CompleteQubo(int n) {
  qubo::QuboProblem problem(n);
  for (int i = 0; i < n; ++i) {
    problem.AddLinear(i, 1.0);
    for (int j = i + 1; j < n; ++j) {
      problem.AddQuadratic(i, j, 1.0);
    }
  }
  return problem;
}

// --------------------------------------------------------------------
// Embedding structure and verification
// --------------------------------------------------------------------

TEST(EmbeddingTest, StatsOnSimpleEmbedding) {
  ChimeraGraph graph(1, 1, 4);
  Embedding embedding(2);
  embedding.SetChain(0, Chain{{graph.IdOf(0, 0, 0, 0)}});
  embedding.SetChain(
      1, Chain{{graph.IdOf(0, 0, 1, 0), graph.IdOf(0, 0, 0, 1)}});
  EXPECT_EQ(embedding.TotalQubits(), 3);
  EXPECT_EQ(embedding.MaxChainLength(), 2);
  EXPECT_DOUBLE_EQ(embedding.MeanChainLength(), 1.5);
  EXPECT_TRUE(embedding.VerifyStructure(graph).ok());
}

TEST(EmbeddingTest, VerifyRejectsEmptyChain) {
  ChimeraGraph graph(1, 1, 4);
  Embedding embedding(1);
  EXPECT_EQ(embedding.VerifyStructure(graph).code(),
            StatusCode::kFailedPrecondition);
}

TEST(EmbeddingTest, VerifyRejectsOverlappingChains) {
  ChimeraGraph graph(1, 1, 4);
  Embedding embedding(2);
  embedding.SetChain(0, Chain{{graph.IdOf(0, 0, 0, 0)}});
  embedding.SetChain(1, Chain{{graph.IdOf(0, 0, 0, 0)}});
  EXPECT_FALSE(embedding.VerifyStructure(graph).ok());
}

TEST(EmbeddingTest, VerifyRejectsBrokenQubit) {
  ChimeraGraph graph(1, 1, 4);
  graph.SetBroken(graph.IdOf(0, 0, 0, 0), true);
  Embedding embedding(1);
  embedding.SetChain(0, Chain{{graph.IdOf(0, 0, 0, 0)}});
  EXPECT_FALSE(embedding.VerifyStructure(graph).ok());
}

TEST(EmbeddingTest, VerifyRejectsDisconnectedChain) {
  ChimeraGraph graph(1, 1, 4);
  Embedding embedding(1);
  // Two left-shore qubits of one cell are NOT coupled.
  embedding.SetChain(0,
                     Chain{{graph.IdOf(0, 0, 0, 0), graph.IdOf(0, 0, 0, 1)}});
  EXPECT_FALSE(embedding.VerifyStructure(graph).ok());
}

TEST(EmbeddingTest, VerifyForProblemNeedsCouplers) {
  ChimeraGraph graph(2, 1, 4);
  Embedding embedding(2);
  // Left qubit of cell (0,0) and right qubit of cell (1,0): no coupler.
  embedding.SetChain(0, Chain{{graph.IdOf(0, 0, 0, 0)}});
  embedding.SetChain(1, Chain{{graph.IdOf(1, 0, 1, 0)}});
  qubo::QuboProblem logical(2);
  logical.AddQuadratic(0, 1, 1.0);
  EXPECT_FALSE(embedding.VerifyForProblem(graph, logical).ok());
  // Without the interaction the embedding is fine.
  qubo::QuboProblem no_interaction(2);
  EXPECT_TRUE(embedding.VerifyForProblem(graph, no_interaction).ok());
}

TEST(EmbeddingTest, VerifyForProblemSizeMismatch) {
  ChimeraGraph graph(1, 1, 4);
  Embedding embedding(1);
  embedding.SetChain(0, Chain{{0}});
  qubo::QuboProblem logical(2);
  EXPECT_EQ(embedding.VerifyForProblem(graph, logical).code(),
            StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------------
// TRIAD
// --------------------------------------------------------------------

TEST(TriadTest, BlockAndQubitFormulas) {
  EXPECT_EQ(TriadEmbedder::BlockSize(4, 4), 1);
  EXPECT_EQ(TriadEmbedder::BlockSize(5, 4), 2);
  EXPECT_EQ(TriadEmbedder::BlockSize(48, 4), 12);
  // Theorem 3's quadratic growth: n * (M + 1).
  EXPECT_EQ(TriadEmbedder::QubitsNeeded(48, 4), 48 * 13);
  EXPECT_EQ(TriadEmbedder::MaxCliqueSize(12, 12, 4), 48);
}

class TriadSizes : public ::testing::TestWithParam<int> {};

TEST_P(TriadSizes, EmbedsCompleteGraph) {
  int n = GetParam();
  ChimeraGraph graph = ChimeraGraph::DWave2X();
  auto embedding = TriadEmbedder::Embed(n, graph);
  ASSERT_TRUE(embedding.ok()) << embedding.status().ToString();
  EXPECT_EQ(embedding->num_vars(), n);
  // Every chain has exactly M + 1 qubits.
  int m = TriadEmbedder::BlockSize(n, 4);
  for (int v = 0; v < n; ++v) {
    EXPECT_EQ(embedding->chain(v).size(), m + 1);
  }
  // The embedding supports a complete problem: all pairs connected.
  EXPECT_TRUE(embedding->VerifyForProblem(graph, CompleteQubo(n)).ok());
}

INSTANTIATE_TEST_SUITE_P(CliqueSizes, TriadSizes,
                         ::testing::Values(2, 3, 4, 5, 8, 12, 16, 20, 32, 48));

TEST(TriadTest, RejectsTooLargeClique) {
  ChimeraGraph graph = ChimeraGraph::DWave2X();
  EXPECT_FALSE(TriadEmbedder::Embed(49, graph).ok());
}

TEST(TriadTest, RejectsNonPositive) {
  ChimeraGraph graph = ChimeraGraph::DWave2X();
  EXPECT_FALSE(TriadEmbedder::Embed(0, graph).ok());
}

TEST(TriadTest, AvoidsBrokenQubitsByRelocating) {
  ChimeraGraph graph = ChimeraGraph::DWave2X();
  // Break an entire cell in the top-left corner; K_8 (2x2 block) must
  // relocate or drop to other chains.
  for (int side = 0; side < 2; ++side) {
    for (int k = 0; k < 4; ++k) {
      graph.SetBroken(graph.IdOf(0, 0, side, k), true);
    }
  }
  auto embedding = TriadEmbedder::Embed(8, graph);
  ASSERT_TRUE(embedding.ok());
  EXPECT_TRUE(embedding->VerifyForProblem(graph, CompleteQubo(8)).ok());
}

TEST(TriadTest, UsesSparebChainsWhenSomeAreBroken) {
  // On an exactly-fitting graph with one broken qubit, K_7 still fits
  // because the 2x2 block offers 8 chains.
  ChimeraGraph graph(2, 2, 4);
  graph.SetBroken(graph.IdOf(0, 0, 1, 0), true);  // kills one chain
  auto embedding = TriadEmbedder::Embed(7, graph);
  ASSERT_TRUE(embedding.ok()) << embedding.status().ToString();
  EXPECT_TRUE(embedding->VerifyForProblem(graph, CompleteQubo(7)).ok());
  // K_8 needs all 8 chains; with one broken it must fail on this graph.
  EXPECT_FALSE(TriadEmbedder::Embed(8, graph).ok());
}

TEST(TriadTest, FixedOriginPlacement) {
  ChimeraGraph graph = ChimeraGraph::DWave2X();
  TriadOptions options;
  options.origin_row = 3;
  options.origin_col = 5;
  auto embedding = TriadEmbedder::Embed(8, graph, options);
  ASSERT_TRUE(embedding.ok());
  for (int v = 0; v < 8; ++v) {
    for (chimera::QubitId q : embedding->chain(v).qubits) {
      chimera::QubitCoord coord = graph.CoordOf(q);
      EXPECT_GE(coord.row, 3);
      EXPECT_LE(coord.row, 4);
      EXPECT_GE(coord.col, 5);
      EXPECT_LE(coord.col, 6);
    }
  }
}

TEST(TriadTest, RejectsFixedOriginWithoutRoom) {
  ChimeraGraph graph = ChimeraGraph::DWave2X();
  TriadOptions options;
  options.origin_row = 11;  // K_8 needs a 2x2 block; row 11 leaves 1 row
  auto embedding = TriadEmbedder::Embed(8, graph, options);
  EXPECT_EQ(embedding.status().code(), StatusCode::kInvalidArgument);
  TriadOptions col_options;
  col_options.origin_col = 11;
  EXPECT_EQ(TriadEmbedder::Embed(8, graph, col_options).status().code(),
            StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------------
// Clique in cell
// --------------------------------------------------------------------

TEST(CliqueInCellTest, QubitCostFormula) {
  EXPECT_EQ(CliqueInCellEmbedder::QubitsNeeded(1), 1);
  EXPECT_EQ(CliqueInCellEmbedder::QubitsNeeded(2), 2);
  EXPECT_EQ(CliqueInCellEmbedder::QubitsNeeded(3), 4);
  EXPECT_EQ(CliqueInCellEmbedder::QubitsNeeded(4), 6);
  EXPECT_EQ(CliqueInCellEmbedder::QubitsNeeded(5), 8);
  EXPECT_EQ(CliqueInCellEmbedder::MaxK(4), 5);
}

class CliqueInCellSizes : public ::testing::TestWithParam<int> {};

TEST_P(CliqueInCellSizes, ChainsArePairwiseCoupled) {
  int k = GetParam();
  ChimeraGraph graph(2, 2, 4);
  auto chains = CliqueInCellEmbedder::EmbedInCell(k, 1, 1, graph);
  ASSERT_TRUE(chains.ok()) << chains.status().ToString();
  ASSERT_EQ(chains->size(), static_cast<size_t>(k));
  // Build an embedding and check against the complete problem.
  Embedding embedding(k);
  int total = 0;
  for (int v = 0; v < k; ++v) {
    total += (*chains)[static_cast<size_t>(v)].size();
    embedding.SetChain(v, (*chains)[static_cast<size_t>(v)]);
  }
  EXPECT_EQ(total, CliqueInCellEmbedder::QubitsNeeded(k));
  EXPECT_TRUE(embedding.VerifyForProblem(graph, CompleteQubo(k)).ok());
}

INSTANTIATE_TEST_SUITE_P(K, CliqueInCellSizes, ::testing::Range(1, 6));

TEST(CliqueInCellTest, DefectAwareRoleAssignment) {
  ChimeraGraph graph(1, 1, 4);
  graph.SetBroken(graph.IdOf(0, 0, 0, 0), true);
  graph.SetBroken(graph.IdOf(0, 0, 1, 2), true);
  // 3 left + 3 right working: K_4 (needs 3 per shore) still fits.
  auto chains = CliqueInCellEmbedder::EmbedInCell(4, 0, 0, graph);
  ASSERT_TRUE(chains.ok()) << chains.status().ToString();
  Embedding embedding(4);
  for (int v = 0; v < 4; ++v) {
    embedding.SetChain(v, (*chains)[static_cast<size_t>(v)]);
  }
  EXPECT_TRUE(embedding.VerifyForProblem(graph, CompleteQubo(4)).ok());
  // K_5 needs 4 per shore: impossible now.
  EXPECT_FALSE(CliqueInCellEmbedder::EmbedInCell(5, 0, 0, graph).ok());
}

TEST(CliqueInCellTest, RejectsOversizedClique) {
  ChimeraGraph graph(1, 1, 4);
  EXPECT_FALSE(CliqueInCellEmbedder::EmbedInCell(6, 0, 0, graph).ok());
}

TEST(CliqueInCellTest, RejectsOutOfGridCell) {
  ChimeraGraph graph(2, 3, 4);
  EXPECT_EQ(CliqueInCellEmbedder::EmbedInCell(3, 2, 0, graph).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CliqueInCellEmbedder::EmbedInCell(3, 0, 3, graph).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CliqueInCellEmbedder::EmbedInCell(3, -1, 0, graph).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CliqueInCellEmbedder::EmbedInCell(3, 0, -1, graph).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CliqueInCellTest, SingleVariableUsesAnyWorkingQubit) {
  ChimeraGraph graph(1, 1, 4);
  for (int k = 0; k < 4; ++k) graph.SetBroken(graph.IdOf(0, 0, 0, k), true);
  auto chains = CliqueInCellEmbedder::EmbedInCell(1, 0, 0, graph);
  ASSERT_TRUE(chains.ok());
  EXPECT_EQ((*chains)[0].size(), 1);
}

// --------------------------------------------------------------------
// Clustered embedder
// --------------------------------------------------------------------

TEST(ClusteredTest, PlacesManySmallClusters) {
  ChimeraGraph graph(3, 3, 4);
  std::vector<int> sizes(9, 3);  // nine K_3 clusters, one per cell
  auto embedding = ClusteredEmbedder::Embed(sizes, graph);
  ASSERT_TRUE(embedding.ok()) << embedding.status().ToString();
  EXPECT_EQ(embedding->num_vars(), 27);
  EXPECT_TRUE(embedding->VerifyStructure(graph).ok());
  // Each cluster is a clique: check with a block-diagonal problem.
  qubo::QuboProblem logical(27);
  for (int c = 0; c < 9; ++c) {
    for (int i = 0; i < 3; ++i) {
      for (int j = i + 1; j < 3; ++j) {
        logical.AddQuadratic(3 * c + i, 3 * c + j, 1.0);
      }
    }
  }
  EXPECT_TRUE(embedding->VerifyForProblem(graph, logical).ok());
}

TEST(ClusteredTest, FailsWhenOutOfCells) {
  ChimeraGraph graph(1, 2, 4);
  std::vector<int> sizes(3, 4);  // three K_4 clusters, only two cells
  EXPECT_EQ(ClusteredEmbedder::Embed(sizes, graph).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(ClusteredTest, LargeClusterGetsTriadBlock) {
  ChimeraGraph graph(4, 4, 4);
  std::vector<int> sizes = {8, 3};  // K_8 needs a 2x2 block, K_3 one cell
  auto embedding = ClusteredEmbedder::Embed(sizes, graph);
  ASSERT_TRUE(embedding.ok()) << embedding.status().ToString();
  qubo::QuboProblem logical(11);
  for (int i = 0; i < 8; ++i) {
    for (int j = i + 1; j < 8; ++j) logical.AddQuadratic(i, j, 1.0);
  }
  logical.AddQuadratic(8, 9, 1.0);
  logical.AddQuadratic(9, 10, 1.0);
  logical.AddQuadratic(8, 10, 1.0);
  EXPECT_TRUE(embedding->VerifyForProblem(graph, logical).ok());
}

TEST(ClusteredTest, PacksTwoSmallCliquesPerCell) {
  // K_3 consumes 2 left + 2 right indices, so an intact cell hosts two.
  ChimeraGraph graph(1, 2, 4);
  std::vector<int> four(4, 3);
  auto embedding = ClusteredEmbedder::Embed(four, graph);
  ASSERT_TRUE(embedding.ok()) << embedding.status().ToString();
  EXPECT_TRUE(embedding->VerifyStructure(graph).ok());
  qubo::QuboProblem logical(12);
  for (int c = 0; c < 4; ++c) {
    logical.AddQuadratic(3 * c, 3 * c + 1, 1.0);
    logical.AddQuadratic(3 * c, 3 * c + 2, 1.0);
    logical.AddQuadratic(3 * c + 1, 3 * c + 2, 1.0);
  }
  EXPECT_TRUE(embedding->VerifyForProblem(graph, logical).ok());
  std::vector<int> five(5, 3);
  EXPECT_FALSE(ClusteredEmbedder::Embed(five, graph).ok());
}

TEST(ClusteredTest, SkipsDamagedCells) {
  ChimeraGraph graph(1, 3, 4);
  // Middle cell loses its whole right shore: K_3 cannot fit there, so the
  // two intact cells (two K_3 regions each) bound the capacity at 4.
  for (int k = 0; k < 4; ++k) graph.SetBroken(graph.IdOf(0, 1, 1, k), true);
  std::vector<int> four(4, 3);
  auto embedding = ClusteredEmbedder::Embed(four, graph);
  ASSERT_TRUE(embedding.ok());
  EXPECT_TRUE(embedding->VerifyStructure(graph).ok());
  std::vector<int> five(5, 3);
  EXPECT_FALSE(ClusteredEmbedder::Embed(five, graph).ok());
}

TEST(ClusteredTest, RejectsNonPositiveClusterSize) {
  ChimeraGraph graph(2, 2, 4);
  EXPECT_EQ(ClusteredEmbedder::Embed({2, 0}, graph).status().code(),
            StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------------
// Pair matching
// --------------------------------------------------------------------

TEST(PairMatchingTest, IntactCellYieldsFourPairs) {
  ChimeraGraph graph(1, 1, 4);
  EXPECT_EQ(PairMatchingEmbedder::Capacity(graph), 4);
}

TEST(PairMatchingTest, PairsAreDisjointAndCoupled) {
  Rng rng(3);
  ChimeraGraph graph = ChimeraGraph::DWave2XWithDefects(&rng);
  auto pairs = PairMatchingEmbedder::MatchPairs(graph);
  std::set<chimera::QubitId> used;
  for (const auto& [a, b] : pairs) {
    EXPECT_TRUE(graph.CouplerUsable(a, b));
    EXPECT_TRUE(used.insert(a).second);
    EXPECT_TRUE(used.insert(b).second);
  }
}

TEST(PairMatchingTest, CapacityNearPaperClass) {
  // The paper hosts 537 two-plan queries on its chip's 1097 working
  // qubits. Our defect map differs (we only know the defect *count*), so
  // require the matching to land within ~3% of the paper's figure and
  // below the perfect-matching bound.
  Rng rng(4);
  ChimeraGraph graph = ChimeraGraph::DWave2XWithDefects(&rng);
  int capacity = PairMatchingEmbedder::Capacity(graph);
  EXPECT_GE(capacity, 520);
  EXPECT_LE(capacity, graph.num_working_qubits() / 2);
}

TEST(PairMatchingTest, EmbedProducesVerifiableEmbedding) {
  Rng rng(5);
  ChimeraGraph graph = ChimeraGraph::DWave2XWithDefects(&rng);
  auto embedding = PairMatchingEmbedder::Embed(100, graph);
  ASSERT_TRUE(embedding.ok());
  EXPECT_EQ(embedding->num_vars(), 200);
  EXPECT_TRUE(embedding->VerifyStructure(graph).ok());
  // Plan pair of each query is coupled.
  qubo::QuboProblem logical(200);
  for (int q = 0; q < 100; ++q) logical.AddQuadratic(2 * q, 2 * q + 1, 1.0);
  EXPECT_TRUE(embedding->VerifyForProblem(graph, logical).ok());
}

TEST(PairMatchingTest, FailsBeyondCapacity) {
  ChimeraGraph graph(1, 1, 4);
  EXPECT_FALSE(PairMatchingEmbedder::Embed(5, graph).ok());
}

TEST(PairMatchingTest, RejectsNegativeQueryCount) {
  ChimeraGraph graph(1, 1, 4);
  EXPECT_EQ(PairMatchingEmbedder::Embed(-1, graph).status().code(),
            StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------------
// Cross-chain couplers
// --------------------------------------------------------------------

TEST(CrossChainTest, FindsInterChainCouplers) {
  ChimeraGraph graph(1, 1, 4);
  auto chains = CliqueInCellEmbedder::EmbedInCell(3, 0, 0, graph);
  ASSERT_TRUE(chains.ok());
  Embedding embedding(3);
  for (int v = 0; v < 3; ++v) {
    embedding.SetChain(v, (*chains)[static_cast<size_t>(v)]);
  }
  auto couplers = CrossChainCouplers(embedding, graph);
  // All three pairs must appear at least once.
  std::set<std::pair<int, int>> pairs;
  for (const ChainCoupler& c : couplers) {
    EXPECT_LT(c.var_a, c.var_b);
    EXPECT_TRUE(graph.CouplerUsable(c.qubit_a, c.qubit_b));
    pairs.insert({c.var_a, c.var_b});
  }
  EXPECT_EQ(pairs.size(), 3u);
}

TEST(CrossChainTest, IgnoresIntraChainCouplers) {
  ChimeraGraph graph(1, 1, 4);
  Embedding embedding(1);
  embedding.SetChain(
      0, Chain{{graph.IdOf(0, 0, 0, 0), graph.IdOf(0, 0, 1, 0)}});
  EXPECT_TRUE(CrossChainCouplers(embedding, graph).empty());
}

// --------------------------------------------------------------------
// Capacity model (Figure 7)
// --------------------------------------------------------------------

TEST(CapacityTest, AnalyticFormulaOnDWave2X) {
  // 12x12 cells: l=2 -> 4 per cell (576), l=3 -> 2 per cell (288),
  // l=4/5 -> 1 per cell (144), l=8 -> one 2x2 block each (36).
  EXPECT_EQ(MaxQueriesForDimensions(12, 12, 4, 2), 576);
  EXPECT_EQ(MaxQueriesForDimensions(12, 12, 4, 3), 288);
  EXPECT_EQ(MaxQueriesForDimensions(12, 12, 4, 4), 144);
  EXPECT_EQ(MaxQueriesForDimensions(12, 12, 4, 5), 144);
  EXPECT_EQ(MaxQueriesForDimensions(12, 12, 4, 8), 36);
  EXPECT_EQ(MaxQueriesForDimensions(12, 12, 4, 48), 1);
  EXPECT_EQ(MaxQueriesForDimensions(12, 12, 4, 49), 0);
}

TEST(CapacityTest, CurveIsMonotoneNonIncreasing) {
  auto curve = CapacityCurve(12, 12, 4, 20);
  ASSERT_EQ(curve.size(), 20u);
  for (size_t i = 2; i < curve.size(); ++i) {
    EXPECT_LE(curve[i].max_queries, curve[i - 1].max_queries)
        << "at l=" << curve[i].plans_per_query;
  }
}

TEST(CapacityTest, DoublingQubitsGrowsCapacity) {
  for (int l : {2, 3, 4, 5, 8}) {
    EXPECT_GE(MaxQueriesForDimensions(12, 24, 4, l),
              2 * MaxQueriesForDimensions(12, 12, 4, l) - 1)
        << "l=" << l;
  }
}

TEST(CapacityTest, MeasuredMatchesAnalyticOnIntactChip) {
  ChimeraGraph graph(2, 2, 4);
  EXPECT_EQ(MeasuredMaxQueries(graph, 2), 16);  // 4 cells x 4 pairs
  EXPECT_EQ(MeasuredMaxQueries(graph, 3), 8);
  EXPECT_EQ(MeasuredMaxQueries(graph, 5), 4);
}

TEST(CapacityTest, MeasuredDropsWithDefects) {
  ChimeraGraph graph(2, 2, 4);
  for (int k = 0; k < 4; ++k) graph.SetBroken(graph.IdOf(0, 0, 1, k), true);
  EXPECT_EQ(MeasuredMaxQueries(graph, 5), 3);
}

// --------------------------------------------------------------------
// Read-out: Unembed against the naive full-round descent
// --------------------------------------------------------------------

/// What `EmbeddedQubo::Unembed` must return: a majority vote per chain
/// (ties toward 0), then greedy rounds that re-evaluate every variable, in
/// order, until a round flips nothing (at most 100 rounds).
std::vector<uint8_t> ReferenceUnembed(const qubo::QuboProblem& logical,
                                      const EmbeddedQubo& embedded,
                                      const std::vector<uint8_t>& physical_x,
                                      int* flipping_rounds = nullptr) {
  std::vector<uint8_t> logical_x(
      static_cast<size_t>(embedded.num_logical_vars()), 0);
  for (int var = 0; var < embedded.num_logical_vars(); ++var) {
    const std::vector<int>& members = embedded.chain_members(var);
    int ones = 0;
    for (int member : members) ones += physical_x[static_cast<size_t>(member)];
    logical_x[static_cast<size_t>(var)] =
        2 * ones > static_cast<int>(members.size()) ? 1 : 0;
  }
  bool improved = true;
  int rounds = 0;
  for (; improved && rounds < 100; ++rounds) {
    improved = false;
    for (int var = 0; var < logical.num_vars(); ++var) {
      if (logical.FlipDelta(logical_x, var) < 0.0) {
        logical_x[static_cast<size_t>(var)] ^= 1;
        improved = true;
      }
    }
  }
  if (flipping_rounds != nullptr) *flipping_rounds = rounds - (improved ? 0 : 1);
  return logical_x;
}

// 200 seeded paper instances (2 to 5 plans per query, integral costs and
// savings, so exactly-zero flip deltas are common), each read out from
// consistent, partly broken and fully random physical assignments.
TEST(UnembedTest, MatchesFullRoundDescentOnPaperInstances) {
  ChimeraGraph graph(4, 4, 4);
  int repaired_reads = 0;
  int broken_reads = 0;
  for (int seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(static_cast<uint64_t>(seed) + 1000);
    harness::PaperWorkloadOptions workload;
    workload.plans_per_query = 2 + seed % 4;
    workload.num_queries = rng.UniformInt(3, 12);
    workload.saving_probability = 0.7;
    auto instance = harness::GeneratePaperInstance(graph, workload, &rng);
    ASSERT_TRUE(instance.ok()) << instance.status().ToString();
    auto mapping = mapping::LogicalMapping::Create(instance->problem);
    ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
    auto embedded =
        EmbeddedQubo::Create(mapping->qubo(), instance->embedding, graph);
    ASSERT_TRUE(embedded.ok()) << embedded.status().ToString();
    const int num_logical = embedded->num_logical_vars();
    const int num_physical = embedded->num_physical_vars();
    for (int read = 0; read < 12; ++read) {
      std::vector<uint8_t> physical_x;
      if (read % 3 == 2) {
        physical_x.resize(static_cast<size_t>(num_physical));
        for (uint8_t& bit : physical_x) bit = rng.Bernoulli(0.5) ? 1 : 0;
      } else {
        std::vector<uint8_t> logical_x(static_cast<size_t>(num_logical));
        for (uint8_t& bit : logical_x) bit = rng.Bernoulli(0.3) ? 1 : 0;
        physical_x = embedded->EmbedAssignment(logical_x);
        if (read % 3 == 1) {
          for (uint8_t& bit : physical_x) {
            if (rng.Bernoulli(0.2)) bit ^= 1;
          }
        }
      }
      if (!embedded->ChainsConsistent(physical_x)) ++broken_reads;
      const std::vector<uint8_t> expected =
          ReferenceUnembed(mapping->qubo(), *embedded, physical_x);
      ASSERT_EQ(embedded->Unembed(physical_x), expected) << "read " << read;
      // An all-zero QUBO never flips anything: the bare majority vote.
      if (expected != ReferenceUnembed(qubo::QuboProblem(num_logical),
                                       *embedded, physical_x)) {
        ++repaired_reads;
      }
    }
  }
  // The instances exercise both the majority vote and the descent.
  EXPECT_GT(broken_reads, 400);
  EXPECT_GT(repaired_reads, 400);
}

// On an MQO energy one flipping round always suffices (after it every
// query holds exactly one plan, and the penalties make every single flip
// uphill). Frustrated random QUBOs on TRIAD cliques need several, which
// is where a variable left clean must be re-evaluated once a neighbour
// flips.
TEST(UnembedTest, MatchesFullRoundDescentOnFrustratedQubos) {
  ChimeraGraph graph(3, 3, 4);
  int multi_round_reads = 0;
  for (int seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(static_cast<uint64_t>(seed) + 5000);
    const int n = rng.UniformInt(4, 12);
    qubo::QuboProblem logical(n);
    for (int i = 0; i < n; ++i) {
      logical.AddLinear(i, rng.UniformInt(-3, 3));
      for (int j = i + 1; j < n; ++j) {
        if (rng.Bernoulli(0.6)) logical.AddQuadratic(i, j, rng.UniformInt(-4, 4));
      }
    }
    auto embedding = TriadEmbedder::Embed(n, graph);
    ASSERT_TRUE(embedding.ok()) << embedding.status().ToString();
    auto embedded = EmbeddedQubo::Create(logical, *embedding, graph);
    ASSERT_TRUE(embedded.ok()) << embedded.status().ToString();
    for (int read = 0; read < 8; ++read) {
      std::vector<uint8_t> physical_x(
          static_cast<size_t>(embedded->num_physical_vars()));
      for (uint8_t& bit : physical_x) bit = rng.Bernoulli(0.5) ? 1 : 0;
      int rounds = 0;
      const std::vector<uint8_t> expected =
          ReferenceUnembed(logical, *embedded, physical_x, &rounds);
      ASSERT_EQ(embedded->Unembed(physical_x), expected) << "read " << read;
      if (rounds >= 2) ++multi_round_reads;
    }
  }
  EXPECT_GT(multi_round_reads, 100);
}

}  // namespace
}  // namespace embedding
}  // namespace qmqo
