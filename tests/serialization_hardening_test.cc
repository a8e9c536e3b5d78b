// Hostile-input hardening of the mqo wire format (text serialization). The
// service deserializes untrusted payloads, so the contract is: any byte
// string either parses into a validated instance or comes back as a typed
// InvalidArgument/OutOfRange — never an assert, an abort, a silently-wrong
// value (atoi's 0-on-garbage), or an attacker-sized allocation.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "mqo/problem.h"
#include "mqo/serialization.h"
#include "util/rng.h"

namespace qmqo {
namespace {

uint64_t ChaosSeed() {
  const char* env = std::getenv("QMQO_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 1;
  return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
}

mqo::MqoProblem RandomProblem(Rng* rng) {
  mqo::MqoProblem problem;
  const int queries = rng->UniformInt(2, 6);
  for (int q = 0; q < queries; ++q) {
    std::vector<double> costs;
    const int plans = rng->UniformInt(1, 4);
    for (int p = 0; p < plans; ++p) {
      costs.push_back(static_cast<double>(rng->UniformInt(1, 50)));
    }
    problem.AddQuery(std::move(costs));
  }
  const int savings = rng->UniformInt(0, 2 * queries);
  for (int s = 0; s < savings; ++s) {
    int a = rng->UniformInt(0, problem.num_plans() - 1);
    int b = rng->UniformInt(0, problem.num_plans() - 1);
    if (problem.query_of(a) == problem.query_of(b)) continue;
    (void)problem.AddSaving(a, b, static_cast<double>(rng->UniformInt(1, 5)));
  }
  return problem;
}

TEST(MqoSerializationHardeningTest, SeededRoundTrip) {
  Rng rng(ChaosSeed());
  for (int i = 0; i < 25; ++i) {
    mqo::MqoProblem problem = RandomProblem(&rng);
    std::string text = mqo::ToText(problem);
    auto parsed = mqo::FromText(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    // Canonical-text equality is the strongest round-trip check the
    // format offers: it covers costs, query partitioning, and savings.
    EXPECT_EQ(mqo::ToText(*parsed), text);
  }
}

TEST(MqoSerializationHardeningTest, TruncationAtEveryPrefixIsSafe) {
  Rng rng(ChaosSeed() + 2);
  mqo::MqoProblem problem = RandomProblem(&rng);
  std::string text = mqo::ToText(problem);
  for (size_t cut = 0; cut < text.size(); ++cut) {
    auto parsed = mqo::FromText(text.substr(0, cut));
    // A prefix either fails with a typed status or (when the cut lands
    // after a complete 'end') yields an instance that validates.
    if (parsed.ok()) {
      EXPECT_TRUE(parsed->Validate().ok());
    } else {
      EXPECT_FALSE(parsed.status().ok());
    }
  }
}

TEST(MqoSerializationHardeningTest, MutationFuzzNeverCrashes) {
  Rng rng(ChaosSeed() + 17);
  const char kBytes[] = "0123456789-+.eE naninf#\t qs";
  for (int round = 0; round < 200; ++round) {
    std::string text = mqo::ToText(RandomProblem(&rng));
    const int mutations = rng.UniformInt(1, 8);
    for (int m = 0; m < mutations; ++m) {
      size_t at = static_cast<size_t>(
          rng.UniformInt64(0, static_cast<int64_t>(text.size()) - 1));
      text[at] = kBytes[rng.UniformInt(0, sizeof(kBytes) - 2)];
    }
    auto parsed = mqo::FromText(text);
    if (parsed.ok()) {
      EXPECT_TRUE(parsed->Validate().ok());
    }
  }
}

TEST(MqoSerializationHardeningTest, RejectsHostilePayloads) {
  // Non-finite costs and savings.
  EXPECT_FALSE(mqo::FromText("mqo v1\nquery nan\nend\n").ok());
  EXPECT_FALSE(mqo::FromText("mqo v1\nquery inf\nend\n").ok());
  EXPECT_FALSE(
      mqo::FromText("mqo v1\nquery 1\nquery 1\nsaving 0 1 nan\nend\n").ok());
  EXPECT_FALSE(
      mqo::FromText("mqo v1\nquery 1\nquery 1\nsaving 0 1 inf\nend\n").ok());
  // Overflowing plan ids used to go through atoi (undefined behavior).
  EXPECT_FALSE(mqo::FromText("mqo v1\nquery 1\nquery 1\n"
                             "saving 99999999999999999999 1 2\nend\n")
                   .ok());
  // Garbage ids used to silently parse as 0.
  EXPECT_FALSE(
      mqo::FromText("mqo v1\nquery 1\nquery 1\nsaving xx 1 2\nend\n").ok());
  // Trailing junk on numeric fields.
  EXPECT_FALSE(mqo::FromText("mqo v1\nquery 1abc\nend\n").ok());
  // Wrong field count.
  EXPECT_FALSE(
      mqo::FromText("mqo v1\nquery 1\nquery 1\nsaving 0 1 2 3\nend\n").ok());
  // Missing terminator / header.
  EXPECT_FALSE(mqo::FromText("mqo v1\nquery 1\n").ok());
  EXPECT_FALSE(mqo::FromText("query 1\nend\n").ok());
}

TEST(MqoSerializationHardeningTest, RejectsOversizedPayloadCheaply) {
  std::string huge(17u << 20, '#');
  auto parsed = mqo::FromText(huge);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace qmqo
