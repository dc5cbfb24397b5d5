#include "common/failpoint.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <thread>
#include <vector>

#include "core/feature_store.h"
#include "storage/online_store.h"

namespace mlfs {
namespace {

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailpointRegistry::Instance().DisarmAll();
    FailpointRegistry::Instance().Reseed(42);
  }
  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }
};

TEST_F(FailpointTest, UnarmedEvaluatesToOk) {
  auto& registry = FailpointRegistry::Instance();
  EXPECT_FALSE(registry.AnyArmed());
  EXPECT_FALSE(registry.IsArmed("never.armed"));
  EXPECT_TRUE(registry.Evaluate("never.armed").ok());
}

TEST_F(FailpointTest, AlwaysOnInjectsConfiguredStatus) {
  auto& registry = FailpointRegistry::Instance();
  FailpointConfig config;
  config.status = Status::ResourceExhausted("shard overloaded");
  registry.Arm("test.point", config);
  EXPECT_TRUE(registry.AnyArmed());
  EXPECT_TRUE(registry.IsArmed("test.point"));
  Status s = registry.Evaluate("test.point");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(s.message(), "shard overloaded");
  registry.Disarm("test.point");
  EXPECT_FALSE(registry.AnyArmed());
  EXPECT_TRUE(registry.Evaluate("test.point").ok());
  // Counters survive disarm.
  EXPECT_EQ(registry.stats("test.point").evaluations, 1u);
  EXPECT_EQ(registry.stats("test.point").fires, 1u);
}

TEST_F(FailpointTest, EveryNthFiresPeriodically) {
  auto& registry = FailpointRegistry::Instance();
  FailpointConfig config;
  config.every_nth = 3;
  registry.Arm("test.nth", config);
  int fires = 0;
  for (int i = 0; i < 9; ++i) {
    if (!registry.Evaluate("test.nth").ok()) ++fires;
  }
  EXPECT_EQ(fires, 3);  // Evaluations 1, 4, 7.
  EXPECT_EQ(registry.stats("test.nth").evaluations, 9u);
}

TEST_F(FailpointTest, SkipFirstDelaysEligibility) {
  auto& registry = FailpointRegistry::Instance();
  FailpointConfig config;
  config.skip_first = 5;
  registry.Arm("test.skip", config);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(registry.Evaluate("test.skip").ok());
  }
  EXPECT_FALSE(registry.Evaluate("test.skip").ok());
}

TEST_F(FailpointTest, MaxFiresSelfDisarms) {
  auto& registry = FailpointRegistry::Instance();
  FailpointConfig config;
  config.max_fires = 2;
  registry.Arm("test.limited", config);
  EXPECT_FALSE(registry.Evaluate("test.limited").ok());
  EXPECT_FALSE(registry.Evaluate("test.limited").ok());
  EXPECT_FALSE(registry.IsArmed("test.limited"));
  EXPECT_TRUE(registry.Evaluate("test.limited").ok());
  EXPECT_EQ(registry.stats("test.limited").fires, 2u);
}

TEST_F(FailpointTest, ProbabilisticFiresAreSeedDeterministic) {
  auto& registry = FailpointRegistry::Instance();
  auto run = [&registry]() {
    registry.Reseed(1234);
    FailpointConfig config;
    config.probability = 0.3;
    registry.Arm("test.prob", config);
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) {
      fired.push_back(!registry.Evaluate("test.prob").ok());
    }
    registry.Disarm("test.prob");
    return fired;
  };
  std::vector<bool> first = run();
  std::vector<bool> second = run();
  EXPECT_EQ(first, second);
  size_t fires = 0;
  for (bool f : first) fires += f;
  EXPECT_GT(fires, 30u);  // ~60 expected at p=0.3.
  EXPECT_LT(fires, 100u);
}

TEST_F(FailpointTest, ScopedFailpointDisarmsOnExit) {
  auto& registry = FailpointRegistry::Instance();
  {
    ScopedFailpoint fp("test.scoped", FailpointConfig{});
    EXPECT_TRUE(registry.IsArmed("test.scoped"));
    EXPECT_FALSE(registry.Evaluate("test.scoped").ok());
    EXPECT_EQ(fp.stats().fires, 1u);
  }
  EXPECT_FALSE(registry.IsArmed("test.scoped"));
  EXPECT_TRUE(registry.Evaluate("test.scoped").ok());
}

TEST_F(FailpointTest, RearmResetsCounters) {
  auto& registry = FailpointRegistry::Instance();
  registry.Arm("test.rearm", FailpointConfig{});
  (void)registry.Evaluate("test.rearm");
  EXPECT_EQ(registry.stats("test.rearm").fires, 1u);
  registry.Arm("test.rearm", FailpointConfig{});
  EXPECT_EQ(registry.stats("test.rearm").fires, 0u);
}

TEST_F(FailpointTest, OnlineStorePutAndGetHonorFailpoints) {
  OnlineStore store;
  SchemaPtr schema =
      Schema::Create({{"x", FeatureType::kInt64, true}}).value();
  ASSERT_TRUE(store.CreateView("v", schema).ok());
  Row row = Row::Create(schema, {Value::Int64(7)}).value();

  {
    FailpointConfig config;
    config.status = Status::Internal("injected put fault");
    ScopedFailpoint fp("online_store.put", config);
    Status s = store.Put("v", Value::Int64(1), row, 1, 1);
    EXPECT_EQ(s.code(), StatusCode::kInternal);
    // The injected failure must not advance traffic counters.
    EXPECT_EQ(store.stats().puts, 0u);
  }
  ASSERT_TRUE(store.Put("v", Value::Int64(1), row, 1, 1).ok());
  {
    FailpointConfig config;
    config.status = Status::Internal("injected get fault");
    ScopedFailpoint fp("online_store.get", config);
    EXPECT_EQ(store.Get("v", Value::Int64(1), 2).status().code(),
              StatusCode::kInternal);
    EXPECT_EQ(store.stats().gets, 0u);
  }
  EXPECT_TRUE(store.Get("v", Value::Int64(1), 2).ok());
  auto s = store.stats();
  EXPECT_EQ(s.gets, 1u);
  EXPECT_EQ(s.hits + s.misses, s.gets);
}

// Regression for the shard-grouped MultiGet: the "online_store.get"
// failpoint must be evaluated exactly once per key (not once per shard
// group), injected entries must not advance traffic counters, and the
// hits + misses == gets invariant must hold for the keys actually served.
TEST_F(FailpointTest, MultiGetEvaluatesFailpointOncePerKey) {
  OnlineStore store;
  SchemaPtr schema =
      Schema::Create({{"x", FeatureType::kInt64, true}}).value();
  ASSERT_TRUE(store.CreateView("v", schema).ok());
  Row row = Row::Create(schema, {Value::Int64(7)}).value();
  for (int64_t k = 0; k < 4; ++k) {
    ASSERT_TRUE(store.Put("v", Value::Int64(k), row, 1, 1).ok());
  }

  FailpointConfig config;
  config.status = Status::Internal("injected get fault");
  config.every_nth = 2;  // Fires on evaluations 1, 3, 5, ...
  ScopedFailpoint fp("online_store.get", config);
  auto got = store.MultiGet(
      "v",
      {Value::Int64(0), Value::Int64(1), Value::Int64(2), Value::Int64(3)},
      2);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(fp.stats().evaluations, 4u);  // One per key, not per shard.
  EXPECT_EQ(fp.stats().fires, 2u);
  EXPECT_EQ(got[0].status().code(), StatusCode::kInternal);
  EXPECT_TRUE(got[1].ok());
  EXPECT_EQ(got[2].status().code(), StatusCode::kInternal);
  EXPECT_TRUE(got[3].ok());
  // Injected keys advance no counters; served keys keep the invariant.
  auto s = store.stats();
  EXPECT_EQ(s.gets, 2u);
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.hits + s.misses, s.gets);
}

TEST_F(FailpointTest, PersistenceWriteFailpointBlocksCheckpoint) {
  FeatureStore store;
  FailpointConfig config;
  config.status = Status::Internal("disk full");
  ScopedFailpoint fp("persistence.write", config);
  const std::string dir =
      ::testing::TempDir() + "mlfs_failpoint_test_ckpt_" +
      std::to_string(::getpid());
  Status s = store.Checkpoint(dir);
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_FALSE(std::filesystem::exists(dir + "/checkpoint.mlfs"));
}

TEST_F(FailpointTest, ConcurrentEvaluationsAreCounted) {
  auto& registry = FailpointRegistry::Instance();
  FailpointConfig config;
  config.probability = 0.5;
  registry.Arm("test.concurrent", config);
  constexpr int kThreads = 8;
  constexpr int kEvalsPerThread = 1000;
  std::vector<std::thread> threads;
  std::atomic<uint64_t> observed_fires{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &observed_fires] {
      for (int i = 0; i < kEvalsPerThread; ++i) {
        if (!registry.Evaluate("test.concurrent").ok()) {
          observed_fires.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  auto stats = registry.stats("test.concurrent");
  EXPECT_EQ(stats.evaluations,
            static_cast<uint64_t>(kThreads) * kEvalsPerThread);
  EXPECT_EQ(stats.fires, observed_fires.load());
  EXPECT_GT(stats.fires, 0u);
  EXPECT_LT(stats.fires, stats.evaluations);
}

}  // namespace
}  // namespace mlfs
