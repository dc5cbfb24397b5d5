#include "streaming/window.h"

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "streaming/stream_pipeline.h"

namespace mlfs {
namespace {

SchemaPtr EventSchema() {
  return Schema::Create({{"user_id", FeatureType::kInt64, false},
                         {"ts", FeatureType::kTimestamp, false},
                         {"fare", FeatureType::kDouble, true}})
      .value();
}

Row Event(const SchemaPtr& schema, int64_t user, Timestamp ts, double fare) {
  return Row::Create(schema, {Value::Int64(user), Value::Time(ts),
                              Value::Double(fare)})
      .value();
}

std::unique_ptr<WindowedAggregator> MakeAgg(
    WindowSpec window, Timestamp lateness = 0,
    std::vector<WindowAggSpec> aggs = {
        {"trip_count", AggregateFn::kCount, ""},
        {"fare_sum", AggregateFn::kSum, "fare"}}) {
  auto agg = WindowedAggregator::Create(EventSchema(), "user_id", "ts",
                                        window, std::move(aggs), lateness);
  EXPECT_TRUE(agg.ok()) << agg.status();
  return std::move(agg).value();
}

TEST(WindowedAggregatorTest, CreateValidation) {
  auto schema = EventSchema();
  std::vector<WindowAggSpec> aggs = {{"c", AggregateFn::kCount, ""}};
  WindowSpec w{Hours(1), Hours(1)};

  EXPECT_FALSE(WindowedAggregator::Create(nullptr, "user_id", "ts", w, aggs)
                   .ok());
  EXPECT_FALSE(WindowedAggregator::Create(schema, "nope", "ts", w, aggs).ok());
  EXPECT_FALSE(WindowedAggregator::Create(schema, "fare", "ts", w, aggs).ok());
  EXPECT_FALSE(WindowedAggregator::Create(schema, "user_id", "fare", w, aggs)
                   .ok());
  EXPECT_FALSE(WindowedAggregator::Create(schema, "user_id", "ts",
                                          {0, Hours(1)}, aggs).ok());
  EXPECT_FALSE(WindowedAggregator::Create(schema, "user_id", "ts",
                                          {Hours(1), Hours(2)}, aggs).ok());
  // Width not a multiple of slide.
  EXPECT_FALSE(WindowedAggregator::Create(schema, "user_id", "ts",
                                          {Minutes(90), Hours(1)}, aggs).ok());
  EXPECT_FALSE(WindowedAggregator::Create(schema, "user_id", "ts", w, {}).ok());
  // Empty input only valid for count.
  EXPECT_FALSE(WindowedAggregator::Create(
                   schema, "user_id", "ts", w,
                   {{"s", AggregateFn::kSum, ""}}).ok());
  // Non-numeric input for sum.
  auto schema2 = Schema::Create({{"user_id", FeatureType::kInt64, false},
                                 {"ts", FeatureType::kTimestamp, false},
                                 {"name", FeatureType::kString, true}})
                     .value();
  EXPECT_FALSE(WindowedAggregator::Create(
                   schema2, "user_id", "ts", w,
                   {{"s", AggregateFn::kSum, "name"}}).ok());
  // count_distinct over strings is fine.
  EXPECT_TRUE(WindowedAggregator::Create(
                  schema2, "user_id", "ts", w,
                  {{"d", AggregateFn::kCountDistinct, "name"}}).ok());
}

TEST(WindowedAggregatorTest, TumblingWindowFinalizesOnWatermark) {
  auto schema = EventSchema();
  auto agg = MakeAgg({Hours(1), Hours(1)});
  ASSERT_TRUE(agg->ProcessEvent(Event(schema, 1, Minutes(10), 5.0)).ok());
  ASSERT_TRUE(agg->ProcessEvent(Event(schema, 1, Minutes(50), 7.0)).ok());
  EXPECT_TRUE(agg->PollResults().empty());  // Window [0,1h) still open.

  // Event at 1h closes window [0,1h).
  ASSERT_TRUE(agg->ProcessEvent(Event(schema, 1, Hours(1), 3.0)).ok());
  auto results = agg->PollResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].entity_key, "1");
  EXPECT_EQ(results[0].window_start, 0);
  EXPECT_EQ(results[0].window_end, Hours(1));
  EXPECT_EQ(results[0].values[0], Value::Int64(2));
  EXPECT_EQ(results[0].values[1], Value::Double(12.0));
}

TEST(WindowedAggregatorTest, PerEntityIsolation) {
  auto schema = EventSchema();
  auto agg = MakeAgg({Hours(1), Hours(1)});
  ASSERT_TRUE(agg->ProcessEvent(Event(schema, 1, Minutes(5), 1.0)).ok());
  ASSERT_TRUE(agg->ProcessEvent(Event(schema, 2, Minutes(6), 10.0)).ok());
  ASSERT_TRUE(agg->ProcessEvent(Event(schema, 2, Minutes(7), 20.0)).ok());
  agg->AdvanceWatermarkTo(Hours(1));
  auto results = agg->PollResults();
  ASSERT_EQ(results.size(), 2u);  // Sorted by entity within window.
  EXPECT_EQ(results[0].entity_key, "1");
  EXPECT_EQ(results[0].values[1], Value::Double(1.0));
  EXPECT_EQ(results[1].entity_key, "2");
  EXPECT_EQ(results[1].values[1], Value::Double(30.0));
}

TEST(WindowedAggregatorTest, SlidingWindowsOverlap) {
  auto schema = EventSchema();
  // Width 2h, slide 1h: event at 1:30 belongs to [0,2h) and [1h,3h).
  auto agg = MakeAgg({Hours(2), Hours(1)});
  ASSERT_TRUE(
      agg->ProcessEvent(Event(schema, 1, Hours(1) + Minutes(30), 4.0)).ok());
  agg->AdvanceWatermarkTo(Hours(10));
  auto results = agg->PollResults();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].window_start, 0);
  EXPECT_EQ(results[1].window_start, Hours(1));
  for (const auto& r : results) {
    EXPECT_EQ(r.values[0], Value::Int64(1));
    EXPECT_EQ(r.values[1], Value::Double(4.0));
  }
}

TEST(WindowedAggregatorTest, AllowedLatenessAcceptsLateEvents) {
  auto schema = EventSchema();
  auto strict = MakeAgg({Hours(1), Hours(1)}, /*lateness=*/0);
  ASSERT_TRUE(strict->ProcessEvent(Event(schema, 1, Hours(2), 1.0)).ok());
  // Event 30min in the past relative to watermark (=2h): dropped.
  ASSERT_TRUE(
      strict->ProcessEvent(Event(schema, 1, Hours(1) + Minutes(30), 9.0)).ok());
  EXPECT_EQ(strict->dropped_late(), 1u);

  auto lenient = MakeAgg({Hours(1), Hours(1)}, /*lateness=*/Hours(1));
  ASSERT_TRUE(lenient->ProcessEvent(Event(schema, 1, Hours(2), 1.0)).ok());
  ASSERT_TRUE(
      lenient->ProcessEvent(Event(schema, 1, Hours(1) + Minutes(30), 9.0))
          .ok());
  EXPECT_EQ(lenient->dropped_late(), 0u);
  lenient->AdvanceWatermarkTo(Hours(10));
  auto results = lenient->PollResults();
  // Window [1h,2h) contains both the late event and... only the late one.
  bool found = false;
  for (const auto& r : results) {
    if (r.window_start == Hours(1)) {
      found = true;
      EXPECT_EQ(r.values[1], Value::Double(9.0));
    }
  }
  EXPECT_TRUE(found);
}

TEST(WindowedAggregatorTest, WatermarkHoldsBackFinalization) {
  auto schema = EventSchema();
  auto agg = MakeAgg({Hours(1), Hours(1)}, /*lateness=*/Minutes(30));
  ASSERT_TRUE(agg->ProcessEvent(Event(schema, 1, Minutes(10), 1.0)).ok());
  ASSERT_TRUE(agg->ProcessEvent(Event(schema, 1, Hours(1) + Minutes(10), 1.0))
                  .ok());
  // Watermark = 1:10 - 0:30 = 0:40 < 1h: window [0,1h) still open.
  EXPECT_TRUE(agg->PollResults().empty());
  ASSERT_TRUE(agg->ProcessEvent(Event(schema, 1, Hours(1) + Minutes(40), 1.0))
                  .ok());
  // Watermark = 1:10: now it closes.
  EXPECT_EQ(agg->PollResults().size(), 1u);
}

TEST(WindowedAggregatorTest, OpenStatesBookkeeping) {
  auto schema = EventSchema();
  auto agg = MakeAgg({Hours(1), Hours(1)});
  ASSERT_TRUE(agg->ProcessEvent(Event(schema, 1, Minutes(10), 1.0)).ok());
  ASSERT_TRUE(agg->ProcessEvent(Event(schema, 2, Minutes(10), 1.0)).ok());
  EXPECT_EQ(agg->open_states(), 2u);
  agg->AdvanceWatermarkTo(Hours(2));
  EXPECT_EQ(agg->open_states(), 0u);
}

TEST(WindowedAggregatorTest, FailedInputLeavesAggregatorUntouched) {
  auto schema = EventSchema();
  // clamp with lo > hi fails on every non-NULL fare. The count ahead of it
  // must not see an event the aggregator rejects.
  auto agg = MakeAgg({Hours(1), Hours(1)}, /*lateness=*/0,
                     {{"n", AggregateFn::kCount, ""},
                      {"bad", AggregateFn::kSum, "clamp(fare, 1.0, 0.0)"}});
  Status rejected = agg->ProcessEvent(Event(schema, 1, Minutes(10), 5.0));
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.message().find("clamp: lo > hi"), std::string::npos)
      << rejected;
  EXPECT_EQ(agg->open_states(), 0u);
  EXPECT_EQ(agg->watermark(), kMinTimestamp);

  // A NULL fare clamps to NULL without error: the one event the window
  // holds.
  Row good = Row::Create(schema, {Value::Int64(1), Value::Time(Minutes(20)),
                                  Value::Null()})
                 .value();
  ASSERT_TRUE(agg->ProcessEvent(good).ok());
  EXPECT_EQ(agg->open_states(), 1u);
  agg->AdvanceWatermarkTo(Hours(1));
  auto results = agg->PollResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].values[0], Value::Int64(1));
}

TEST(WindowedAggregatorTest, RandomizedMatchesBatchOracle) {
  auto schema = EventSchema();
  const Timestamp width = Hours(2), slide = Hours(1);
  // Lateness covers the whole event span so no event is ever dropped and
  // the streaming result must match the batch recomputation exactly.
  auto agg = MakeAgg({width, slide}, /*lateness=*/Days(2));
  Rng rng(77);
  struct Ev { int64_t user; Timestamp ts; double fare; };
  std::vector<Ev> events;
  for (int i = 0; i < 2000; ++i) {
    Ev e{static_cast<int64_t>(rng.Uniform(5)),
         static_cast<Timestamp>(rng.Uniform(Days(2))),
         rng.UniformDouble(0, 100)};
    events.push_back(e);
    ASSERT_TRUE(agg->ProcessEvent(Event(schema, e.user, e.ts, e.fare)).ok());
  }
  agg->AdvanceWatermarkTo(Days(3));
  auto results = agg->PollResults();

  // Batch oracle: for every (window_start, user), count and sum.
  std::map<std::pair<Timestamp, std::string>, std::pair<int64_t, double>>
      oracle;
  for (const auto& e : events) {
    // Window starts may be negative for events near the epoch (the first
    // sliding windows straddle time zero).
    for (Timestamp start = (e.ts / slide) * slide;
         start > e.ts - width; start -= slide) {
      auto& agg_val = oracle[{start, std::to_string(e.user)}];
      agg_val.first += 1;
      agg_val.second += e.fare;
    }
  }
  ASSERT_EQ(results.size(), oracle.size());
  for (const auto& r : results) {
    auto it = oracle.find({r.window_start, r.entity_key});
    ASSERT_NE(it, oracle.end());
    EXPECT_EQ(r.values[0].int64_value(), it->second.first);
    EXPECT_NEAR(r.values[1].double_value(), it->second.second, 1e-6);
  }
}

TEST(StreamPipelineTest, MaterializesToBothStores) {
  OnlineStore online;
  OfflineStore offline;
  StreamPipelineOptions opt;
  opt.name = "trip_stats_1h";
  opt.event_schema = EventSchema();
  opt.entity_column = "user_id";
  opt.time_column = "ts";
  opt.window = {Hours(1), Hours(1)};
  opt.aggs = {{"trip_count", AggregateFn::kCount, ""},
              {"fare_mean", AggregateFn::kMean, "fare"}};
  auto pipeline = StreamPipeline::Create(opt, &online, &offline);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();

  auto schema = EventSchema();
  ASSERT_TRUE((*pipeline)->Ingest(Event(schema, 1, Minutes(10), 10.0)).ok());
  ASSERT_TRUE((*pipeline)->Ingest(Event(schema, 1, Minutes(20), 20.0)).ok());
  ASSERT_TRUE((*pipeline)->Flush(Hours(1)).ok());

  EXPECT_EQ((*pipeline)->rows_emitted(), 1u);
  // Online store has the materialized row.
  auto got = online.Get("trip_stats_1h", Value::Int64(1), Hours(1));
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->ValueByName("trip_count").value(), Value::Int64(2));
  EXPECT_EQ(got->ValueByName("fare_mean").value(), Value::Double(15.0));
  // Offline store logged it too.
  auto table = offline.GetTable("trip_stats_1h").value();
  EXPECT_EQ(table->num_rows(), 1u);
  auto as_of = table->AsOf(Value::Int64(1), Hours(2));
  ASSERT_TRUE(as_of.ok());
  EXPECT_EQ(as_of->ValueByName("fare_mean").value(), Value::Double(15.0));
}

TEST(StreamPipelineTest, CreateRejectsDuplicates) {
  OnlineStore online;
  OfflineStore offline;
  StreamPipelineOptions opt;
  opt.name = "dup";
  opt.event_schema = EventSchema();
  opt.entity_column = "user_id";
  opt.time_column = "ts";
  opt.window = {Hours(1), Hours(1)};
  opt.aggs = {{"c", AggregateFn::kCount, ""}};
  ASSERT_TRUE(StreamPipeline::Create(opt, &online, &offline).ok());
  EXPECT_FALSE(StreamPipeline::Create(opt, &online, &offline).ok());
  EXPECT_FALSE(StreamPipeline::Create(opt, nullptr, &offline).ok());
}

TEST(StreamPipelineTest, StringEntityPipeline) {
  OnlineStore online;
  OfflineStore offline;
  auto schema = Schema::Create({{"driver", FeatureType::kString, false},
                                {"ts", FeatureType::kTimestamp, false},
                                {"speed", FeatureType::kDouble, true}})
                    .value();
  StreamPipelineOptions opt;
  opt.name = "driver_speed";
  opt.event_schema = schema;
  opt.entity_column = "driver";
  opt.time_column = "ts";
  opt.window = {Hours(1), Hours(1)};
  opt.aggs = {{"max_speed", AggregateFn::kMax, "speed"}};
  auto pipeline = StreamPipeline::Create(opt, &online, &offline).value();
  auto ev = [&](const std::string& d, Timestamp ts, double v) {
    return Row::Create(schema, {Value::String(d), Value::Time(ts),
                                Value::Double(v)})
        .value();
  };
  ASSERT_TRUE(pipeline->Ingest(ev("d-1", Minutes(5), 55.0)).ok());
  ASSERT_TRUE(pipeline->Ingest(ev("d-1", Minutes(6), 70.0)).ok());
  ASSERT_TRUE(pipeline->Flush(Hours(1)).ok());
  auto got = online.Get("driver_speed", Value::String("d-1"), Hours(1));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->ValueByName("max_speed").value(), Value::Double(70.0));
}

}  // namespace
}  // namespace mlfs
