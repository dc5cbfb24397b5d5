// Concurrency stress/soak suite (CTest label: stress).
//
// Hammers the shared OnlineStore + FeatureServer from concurrent writer and
// reader threads while failpoints inject deterministic faults, then asserts
// the stats invariants that every later scaling PR must preserve:
//   - hits + misses == gets (no get is double- or un-counted)
//   - event-time last-writer-wins loses no update (survivor == newest
//     successful write per key)
//   - counters are monotone while traffic is in flight
// Run clean under ThreadSanitizer via: cmake -DMLFS_SANITIZE=thread ...
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "common/serde.h"
#include "core/feature_store.h"
#include "pit_reference.h"
#include "serving/feature_server.h"
#include "serving/point_in_time.h"
#include "storage/offline_store.h"
#include "storage/online_store.h"
#include "streaming/stream_pipeline.h"

namespace mlfs {
namespace {

constexpr int kWriters = 4;
constexpr int kReaders = 4;
constexpr int kOpsPerWriter = 20000;
constexpr int kOpsPerReader = 10000;
constexpr int64_t kKeys = 64;

SchemaPtr FeatureViewSchema() {
  return Schema::Create({{"entity", FeatureType::kInt64, false},
                         {"event_time", FeatureType::kTimestamp, false},
                         {"value", FeatureType::kDouble, true}})
      .value();
}

class StressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailpointRegistry::Instance().DisarmAll();
    FailpointRegistry::Instance().Reseed(0x57e55ULL);
  }
  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }
};

// One writer thread: distinct event times per op, spread over kKeys keys.
// Returns per-key newest *successful* event time via out-param.
void WriterLoop(OnlineStore* store, const SchemaPtr& schema, int writer_id,
                std::vector<Timestamp>* newest_ok,
                std::atomic<uint64_t>* injected_put_failures) {
  for (int i = 0; i < kOpsPerWriter; ++i) {
    // Globally unique event time per (writer, op).
    Timestamp et = Seconds(1 + i * kWriters + writer_id);
    int64_t key = (i * kWriters + writer_id) % kKeys;
    Row row = Row::CreateUnsafe(
        schema, {Value::Int64(key), Value::Time(et),
                 Value::Double(static_cast<double>(et))});
    // Occasional TTL'd write so readers exercise the expiry path too.
    Timestamp ttl = (i % 7 == 0) ? Seconds(1) : 0;
    Status s = store->Put("feat_a", Value::Int64(key), row, et, et, ttl);
    if (s.ok()) {
      (*newest_ok)[key] = std::max((*newest_ok)[key], et);
    } else {
      ASSERT_EQ(s.code(), StatusCode::kInternal) << s;
      injected_put_failures->fetch_add(1, std::memory_order_relaxed);
    }
  }
}

TEST_F(StressTest, ConcurrentServingUnderFaultInjection) {
  OnlineStoreOptions store_options;
  store_options.num_shards = 4;  // Few shards: force lock contention.
  OnlineStore store(store_options);
  SchemaPtr schema = FeatureViewSchema();
  ASSERT_TRUE(store.CreateView("feat_a", schema).ok());

  FeatureServerOptions server_options;
  server_options.max_attempts = 4;
  FeatureServer server(&store, server_options);

  {
    FailpointConfig put_faults;
    put_faults.status = Status::Internal("injected put fault");
    put_faults.probability = 0.02;
    FailpointRegistry::Instance().Arm("online_store.put", put_faults);
    FailpointConfig get_faults;
    get_faults.status = Status::Internal("injected get fault");
    get_faults.probability = 0.05;
    FailpointRegistry::Instance().Arm("online_store.get", get_faults);
  }

  // Monitor thread: every counter must be monotone while traffic runs, and
  // hits + misses can never exceed gets.
  std::atomic<bool> done{false};
  std::thread monitor([&store, &server, &done] {
    OnlineStoreStats prev_store;
    FeatureServerStats prev_server;
    while (!done.load(std::memory_order_acquire)) {
      OnlineStoreStats s = store.stats();
      EXPECT_GE(s.puts, prev_store.puts);
      EXPECT_GE(s.gets, prev_store.gets);
      EXPECT_GE(s.hits, prev_store.hits);
      EXPECT_GE(s.misses, prev_store.misses);
      EXPECT_GE(s.expired, prev_store.expired);
      EXPECT_GE(s.stale_writes, prev_store.stale_writes);
      // Note: hits + misses == gets is only checked after the join below —
      // counters are relaxed atomics, so a mid-flight sample may observe a
      // hit before the get that produced it.
      prev_store = s;
      FeatureServerStats f = server.stats();
      EXPECT_GE(f.requests, prev_server.requests);
      EXPECT_GE(f.retries, prev_server.retries);
      EXPECT_GE(f.degraded_features, prev_server.degraded_features);
      EXPECT_GE(f.degraded_responses, prev_server.degraded_responses);
      prev_server = f;
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> threads;
  std::vector<std::vector<Timestamp>> newest_ok(
      kWriters, std::vector<Timestamp>(kKeys, kMinTimestamp));
  std::atomic<uint64_t> injected_put_failures{0};
  std::atomic<uint64_t> reader_requests{0};
  std::atomic<uint64_t> reader_nulls{0};

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back(
        [&store, &schema, w, &newest_ok, &injected_put_failures] {
          WriterLoop(&store, schema, w, &newest_ok[w],
                     &injected_put_failures);
        });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&server, r, &reader_requests, &reader_nulls] {
      Rng rng(1000 + r);
      for (int i = 0; i < kOpsPerReader; ++i) {
        int64_t key = static_cast<int64_t>(rng.Uniform(kKeys));
        Timestamp now = Seconds(1 + rng.Uniform(kWriters * kOpsPerWriter));
        auto fv = server.GetFeatures(Value::Int64(key), {"feat_a"}, now);
        // Under kNull the request itself always succeeds: faults degrade.
        ASSERT_TRUE(fv.ok()) << fv.status();
        reader_requests.fetch_add(1, std::memory_order_relaxed);
        reader_nulls.fetch_add(fv->missing, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  done.store(true, std::memory_order_release);
  monitor.join();
  FailpointRegistry::Instance().DisarmAll();

  // --- Invariants after the dust settles. ---
  OnlineStoreStats s = store.stats();
  EXPECT_EQ(s.hits + s.misses, s.gets);
  const uint64_t attempted_puts =
      static_cast<uint64_t>(kWriters) * kOpsPerWriter;
  EXPECT_EQ(s.puts + injected_put_failures.load(), attempted_puts);
  EXPECT_GT(injected_put_failures.load(), 0u);  // p=0.02 over 12k ops.

  FeatureServerStats f = server.stats();
  EXPECT_EQ(f.requests, reader_requests.load());
  EXPECT_EQ(f.requests, static_cast<uint64_t>(kReaders) * kOpsPerReader);
  EXPECT_GT(f.retries, 0u);  // p=0.05 get faults with 4 attempts.
  EXPECT_GE(f.degraded_features, f.degraded_responses);

  // No lost updates: each key's survivor is the newest successful write.
  for (int64_t key = 0; key < kKeys; ++key) {
    Timestamp newest = kMinTimestamp;
    for (int w = 0; w < kWriters; ++w) {
      newest = std::max(newest, newest_ok[w][key]);
    }
    ASSERT_GT(newest, kMinTimestamp) << "key " << key << " never written";
    auto et = store.GetEventTime("feat_a", Value::Int64(key), newest);
    ASSERT_TRUE(et.ok()) << et.status();
    EXPECT_EQ(*et, newest) << "lost update on key " << key;
    auto row = store.Get("feat_a", Value::Int64(key), newest);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(row->value(2).double_value(), static_cast<double>(newest));
  }
}

// Shard-grouped MultiGet and batched serving racing writers, an evictor,
// and injected faults: batched readers take shared shard locks in groups,
// writers take exclusive locks, and the striped server metrics record from
// every thread. Asserts the MultiGet stats invariant hits + misses (which
// includes expired) == gets, per-entry result shape, and that the striped
// histogram loses no request. Run under TSan to certify the
// shared_mutex/striped-metrics locking.
TEST_F(StressTest, ConcurrentBatchedMultiGetUnderFaultInjection) {
  constexpr int kBatchWriters = 2;
  constexpr int kBatchReaders = 4;
  constexpr int kBatchesPerReader = 250;
  constexpr size_t kBatchSize = 32;

  OnlineStoreOptions store_options;
  store_options.num_shards = 4;  // Few shards: batches always collide.
  OnlineStore store(store_options);
  SchemaPtr schema = FeatureViewSchema();
  ASSERT_TRUE(store.CreateView("feat_a", schema).ok());

  FeatureServerOptions server_options;
  server_options.max_attempts = 3;
  FeatureServer server(&store, server_options);

  {
    FailpointConfig put_faults;
    put_faults.status = Status::Internal("injected put fault");
    put_faults.probability = 0.02;
    FailpointRegistry::Instance().Arm("online_store.put", put_faults);
    FailpointConfig get_faults;
    get_faults.status = Status::Internal("injected get fault");
    get_faults.probability = 0.05;
    FailpointRegistry::Instance().Arm("online_store.get", get_faults);
  }

  std::vector<std::thread> threads;
  std::vector<std::vector<Timestamp>> newest_ok(
      kBatchWriters, std::vector<Timestamp>(kKeys, kMinTimestamp));
  std::atomic<uint64_t> injected_put_failures{0};
  std::atomic<bool> done{false};
  for (int w = 0; w < kBatchWriters; ++w) {
    threads.emplace_back(
        [&store, &schema, w, &newest_ok, &injected_put_failures] {
          WriterLoop(&store, schema, w, &newest_ok[w],
                     &injected_put_failures);
        });
  }
  // Evictor: exclusive locks vs batch reads.
  threads.emplace_back([&store, &done] {
    while (!done.load(std::memory_order_acquire)) {
      store.EvictExpired(Seconds(2500));
      std::this_thread::yield();
    }
  });
  std::atomic<uint64_t> server_entities{0};
  for (int r = 0; r < kBatchReaders; ++r) {
    threads.emplace_back([&store, &server, r, &server_entities] {
      Rng rng(5000 + r);
      for (int b = 0; b < kBatchesPerReader; ++b) {
        std::vector<Value> batch;
        batch.reserve(kBatchSize);
        for (size_t i = 0; i < kBatchSize; ++i) {
          batch.push_back(
              Value::Int64(static_cast<int64_t>(rng.Uniform(kKeys))));
        }
        Timestamp now =
            Seconds(1 + rng.Uniform(kBatchWriters * kOpsPerWriter));
        if (r % 2 == 0) {
          // Raw store path: every key gets an answer, in order.
          auto rows = store.MultiGet("feat_a", batch, now);
          ASSERT_EQ(rows.size(), batch.size());
          for (const auto& row : rows) {
            if (!row.ok()) {
              ASSERT_TRUE(row.status().IsNotFound() ||
                          row.status().code() == StatusCode::kInternal)
                  << row.status();
            }
          }
        } else {
          // Serving path: kNull degrades injected faults, so every
          // per-entity entry succeeds.
          auto fvs = server.GetFeaturesBatch(batch, {"feat_a"}, now);
          ASSERT_EQ(fvs.size(), batch.size());
          for (const auto& fv : fvs) {
            ASSERT_TRUE(fv.ok()) << fv.status();
          }
          server_entities.fetch_add(batch.size(),
                                    std::memory_order_relaxed);
        }
      }
    });
  }
  // Writers/readers are the finite tasks; the evictor spins until stopped.
  while (store.stats().puts + injected_put_failures.load() <
         static_cast<uint64_t>(kBatchWriters) * kOpsPerWriter) {
    std::this_thread::yield();
  }
  while (server.requests() <
         static_cast<uint64_t>((kBatchReaders + 1) / 2) * kBatchesPerReader *
             kBatchSize) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  FailpointRegistry::Instance().DisarmAll();

  // MultiGet preserves the store invariant under concurrency + faults.
  OnlineStoreStats s = store.stats();
  EXPECT_EQ(s.hits + s.misses, s.gets);
  EXPECT_GE(s.misses, s.expired);

  // Striped metrics: every batched entity was counted exactly once, and
  // the merged histogram carries exactly one sample per request.
  FeatureServerStats f = server.stats();
  EXPECT_EQ(f.requests, server_entities.load());
  EXPECT_EQ(server.latency_histogram().count(), f.requests);
  EXPECT_GT(f.retries, 0u);  // p=0.05 faults with 3 attempts.
  EXPECT_GE(f.degraded_features, f.degraded_responses);
}

// Snapshots, eviction, and stats scans racing live write traffic: the
// shard-by-shard walkers must never observe torn state or deadlock.
TEST_F(StressTest, SnapshotAndEvictionRaceWriters) {
  OnlineStoreOptions store_options;
  store_options.num_shards = 4;
  OnlineStore store(store_options);
  SchemaPtr schema = FeatureViewSchema();
  ASSERT_TRUE(store.CreateView("feat_a", schema).ok());

  constexpr int kSnapshotWriters = 2;
  constexpr int kPutsPerSnapshotWriter = 20000;
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kSnapshotWriters; ++w) {
    threads.emplace_back([&store, &schema, w] {
      for (int i = 0; i < kPutsPerSnapshotWriter; ++i) {
        Timestamp et = Seconds(1 + i * 2 + w);
        int64_t key = (i * 2 + w) % kKeys;
        Row row = Row::CreateUnsafe(
            schema, {Value::Int64(key), Value::Time(et),
                     Value::Double(static_cast<double>(et))});
        // Half the writes carry a short TTL for the evictor to reap.
        ASSERT_TRUE(store.Put("feat_a", Value::Int64(key), row, et, et,
                              (i % 2 == 0) ? Seconds(5) : 0)
                        .ok());
      }
    });
  }
  threads.emplace_back([&store, &done] {
    size_t snapshots = 0;
    while (!done.load(std::memory_order_acquire)) {
      std::string snap = store.Snapshot();
      ASSERT_FALSE(snap.empty());
      // Every concurrent snapshot must be restorable into a fresh store.
      if (++snapshots % 16 == 0) {
        OnlineStore restored;
        ASSERT_TRUE(restored.Restore(snap).ok());
        auto rs = restored.stats();
        EXPECT_LE(rs.num_cells, static_cast<size_t>(kKeys));
      }
      std::this_thread::yield();
    }
  });
  threads.emplace_back([&store, &done] {
    while (!done.load(std::memory_order_acquire)) {
      store.EvictExpired(Seconds(2500));
      (void)store.stats();
      std::this_thread::yield();
    }
  });

  // Writers are the first two tasks; poll until both finish by watching the
  // put counter, then stop the background scanners.
  constexpr uint64_t kTotalPuts =
      static_cast<uint64_t>(kSnapshotWriters) * kPutsPerSnapshotWriter;
  while (store.stats().puts < kTotalPuts) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  OnlineStoreStats s = store.stats();
  EXPECT_EQ(s.puts, kTotalPuts);
  EXPECT_LE(s.num_cells, static_cast<size_t>(kKeys));
  std::string final_snap = store.Snapshot();
  OnlineStore restored;
  ASSERT_TRUE(restored.Restore(final_snap).ok());
  EXPECT_EQ(restored.stats().num_cells, s.num_cells);
}

// Concurrent NearestEntities/NearestEntitiesBatch across two embeddings
// while a registrar thread publishes new versions: certifies under TSan
// that (a) ANN index builds happen outside ann_mu_ with once-per-version
// semantics, so a slow build on one embedding never blocks lookups on the
// other, (b) eviction of superseded versions races safely with readers
// holding the evicted index, and (c) the cache stays bounded throughout.
TEST_F(StressTest, ConcurrentNearestEntitiesAcrossEmbeddings) {
  constexpr int kEmbKeys = 256;
  constexpr int kDim = 16;
  constexpr int kAnnReaders = 4;
  constexpr int kLookupsPerReader = 200;
  constexpr int kReregistrations = 24;

  FeatureStore store;
  std::vector<std::string> keys;
  keys.reserve(kEmbKeys);
  for (int i = 0; i < kEmbKeys; ++i) keys.push_back("k" + std::to_string(i));
  auto make_table = [&keys](const std::string& name, uint64_t seed) {
    Rng rng(seed);
    std::vector<float> vectors;
    vectors.reserve(keys.size() * kDim);
    for (size_t i = 0; i < keys.size() * kDim; ++i) {
      vectors.push_back(static_cast<float>(rng.Gaussian()));
    }
    EmbeddingTableMetadata metadata;
    metadata.name = name;
    return EmbeddingTable::Create(metadata, keys, vectors, kDim).value();
  };
  ASSERT_TRUE(store.RegisterEmbedding(make_table("emb_a", 1)).ok());
  ASSERT_TRUE(store.RegisterEmbedding(make_table("emb_b", 2)).ok());

  std::vector<std::thread> threads;
  std::atomic<uint64_t> lookups{0};
  for (int r = 0; r < kAnnReaders; ++r) {
    threads.emplace_back([&store, &keys, &lookups, r] {
      // Readers alternate embeddings so both indexes are always under
      // concurrent load from multiple threads.
      const std::string name = (r % 2 == 0) ? "emb_a" : "emb_b";
      Rng rng(7000 + r);
      for (int i = 0; i < kLookupsPerReader; ++i) {
        const std::string& ref = keys[rng.Uniform(keys.size())];
        if (i % 4 == 0) {
          std::vector<std::string> refs;
          for (int b = 0; b < 8; ++b) {
            refs.push_back(keys[rng.Uniform(keys.size())]);
          }
          auto batch = store.NearestEntitiesBatch(name, refs, 5);
          ASSERT_EQ(batch.size(), refs.size());
          for (size_t s = 0; s < batch.size(); ++s) {
            ASSERT_TRUE(batch[s].ok()) << batch[s].status();
            ASSERT_LE(batch[s]->size(), 5u);
            for (const auto& [key, dist] : *batch[s]) {
              ASSERT_NE(key, refs[s]);  // Self excluded.
            }
          }
          lookups.fetch_add(refs.size(), std::memory_order_relaxed);
        } else {
          auto neighbors = store.NearestEntities(name, ref, 5);
          ASSERT_TRUE(neighbors.ok()) << neighbors.status();
          ASSERT_LE(neighbors->size(), 5u);
          for (size_t s = 1; s < neighbors->size(); ++s) {
            ASSERT_LE((*neighbors)[s - 1].second, (*neighbors)[s].second);
          }
          lookups.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  threads.emplace_back([&store, &make_table] {
    // Registrar: keeps publishing fresh versions of emb_a, so readers race
    // index builds and eviction of the versions they are still using.
    for (int i = 0; i < kReregistrations; ++i) {
      ASSERT_TRUE(
          store.RegisterEmbedding(make_table("emb_a", 100 + i)).ok());
      ASSERT_TRUE(store.NearestEntities("emb_a", "k0", 3).ok());
      std::this_thread::yield();
    }
  });
  for (std::thread& t : threads) t.join();

  // Per reader: every 4th iteration is a batch of 8, the rest are singles.
  constexpr uint64_t kPerReader =
      (kLookupsPerReader / 4) * 8 +
      (kLookupsPerReader - kLookupsPerReader / 4);
  EXPECT_EQ(lookups.load(), static_cast<uint64_t>(kAnnReaders) * kPerReader);
  // Bounded cache: nothing pinned, so only the latest version per name may
  // remain (in-flight builds of just-superseded versions may briefly add
  // one more, but all traffic has drained by now).
  EXPECT_LE(store.ann_cache_size(), 2u);
}

// Soak the streaming materialization path against injected faults: a fired
// "stream_pipeline.materialize" failpoint fails the Ingest, but finalized
// windows stay queued in the aggregator and are materialized by the next
// successful call — faults delay, but never lose, window results.
TEST_F(StressTest, StreamPipelineMaterializationSurvivesFaults) {
  OnlineStore online;
  OfflineStore offline;
  StreamPipelineOptions opt;
  opt.name = "clicks_1h";
  opt.event_schema =
      Schema::Create({{"user", FeatureType::kInt64, false},
                      {"ts", FeatureType::kTimestamp, false},
                      {"amount", FeatureType::kDouble, true}})
          .value();
  opt.entity_column = "user";
  opt.time_column = "ts";
  opt.window = {Hours(1), Hours(1)};
  opt.aggs = {{"click_count", AggregateFn::kCount, ""}};
  auto pipeline = StreamPipeline::Create(opt, &online, &offline);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();

  constexpr int kEvents = 8000;
  constexpr int64_t kUsers = 16;
  uint64_t injected = 0;
  {
    FailpointConfig config;
    config.status = Status::Internal("injected materialize fault");
    config.probability = 0.2;
    ScopedFailpoint fp("stream_pipeline.materialize", config);
    Rng rng(99);
    for (int i = 0; i < kEvents; ++i) {
      Timestamp ts = Minutes(1 + i);  // Steadily advancing event time.
      Row event = Row::CreateUnsafe(
          opt.event_schema,
          {Value::Int64(static_cast<int64_t>(rng.Uniform(kUsers))),
           Value::Time(ts), Value::Double(1.0)});
      Status s = (*pipeline)->Ingest(event);
      if (!s.ok()) {
        ASSERT_EQ(s.code(), StatusCode::kInternal) << s;
        ++injected;
      }
    }
    EXPECT_GT(fp.stats().fires, 0u);
    injected = fp.stats().fires;
  }
  // Failpoint disarmed: the final flush must drain everything still queued.
  ASSERT_TRUE((*pipeline)->Flush(kMaxTimestamp).ok());
  EXPECT_GT(injected, 0u);
  EXPECT_EQ((*pipeline)->events_ingested(), static_cast<uint64_t>(kEvents));

  // Every user clicked in (nearly) every hour; with faults only delaying
  // materialization, the offline log must hold every emitted window row and
  // the online store the latest window per user.
  auto table = offline.GetTable("clicks_1h").value();
  EXPECT_EQ(table->num_rows(), (*pipeline)->rows_emitted());
  uint64_t online_rows = 0;
  for (int64_t u = 0; u < kUsers; ++u) {
    if (online.Get("clicks_1h", Value::Int64(u), kMaxTimestamp - 1).ok()) {
      ++online_rows;
    }
  }
  EXPECT_EQ(online_rows, static_cast<uint64_t>(kUsers));
}

// One LineageGraph shared by an EmbeddingStore and a ModelRegistry under
// concurrent registration (graph writes + MarkStale fan-out), closure
// readers, and a subscribed staleness listener. Certifies the graph's
// shared_mutex discipline and the listeners-notified-outside-the-lock
// contract under TSan:
//   - every MarkStale event reaches both the event log and the listener
//     (no event dropped or double-delivered)
//   - closure/skew queries taken mid-churn never see torn state
//   - final version chains and version counts are exact.
TEST_F(StressTest, ConcurrentLineageRecordingAndClosureQueries) {
  constexpr int kEmbWriters = 3;
  constexpr int kVersionsPerWriter = 40;
  constexpr int kModelWriters = 2;
  constexpr int kModelsPerWriter = 150;
  constexpr int kLineageReaders = 3;
  constexpr int kQueriesPerReader = 400;

  LineageGraph graph;
  EmbeddingStore embeddings(&graph);
  ModelRegistry models(&graph);

  std::atomic<uint64_t> heard{0};
  graph.Subscribe([&heard](const StalenessEvent& event) {
    // Listeners run outside the graph lock: re-entering the graph from a
    // listener must not deadlock.
    (void)event.impacted.size();
    heard.fetch_add(1, std::memory_order_relaxed);
  });

  std::atomic<bool> done{false};
  std::vector<std::thread> threads;

  for (int w = 0; w < kEmbWriters; ++w) {
    threads.emplace_back([&embeddings, w] {
      const std::string name = "emb_w" + std::to_string(w);
      EmbeddingTableMetadata metadata;
      metadata.name = name;
      for (int v = 0; v < kVersionsPerWriter; ++v) {
        if (v > 0) metadata.parent = name;  // Chain onto the latest.
        auto table = EmbeddingTable::Create(
            metadata, {"a", "b"}, {1.f * v, 0, 0, 1.f * v}, 2).value();
        ASSERT_TRUE(embeddings.Register(table, Seconds(v + 1)).ok());
      }
    });
  }
  for (int w = 0; w < kModelWriters; ++w) {
    threads.emplace_back([&models, w] {
      Rng rng(77 + w);
      for (int i = 0; i < kModelsPerWriter; ++i) {
        ModelRecord record;
        record.name = "model_w" + std::to_string(w) + "_" +
                      std::to_string(i % 10);
        record.task = "stress";
        record.embedding_refs = {
            "emb_w" + std::to_string(rng.Uniform(kEmbWriters)) + "@v" +
            std::to_string(1 + rng.Uniform(kVersionsPerWriter))};
        ASSERT_TRUE(models.Register(std::move(record), Seconds(i)).ok());
      }
    });
  }
  for (int r = 0; r < kLineageReaders; ++r) {
    threads.emplace_back([&graph, &embeddings, &models, &done, r] {
      Rng rng(5000 + r);
      for (int i = 0; i < kQueriesPerReader && !done.load(); ++i) {
        const std::string name =
            "emb_w" + std::to_string(rng.Uniform(kEmbWriters));
        auto versions = graph.VersionsOf(ArtifactKind::kEmbedding, name);
        // Versions appear strictly ascending; a reader never sees dups or
        // disorder. (Gaps are possible mid-flight: a model's pin edge can
        // intern a version node before the store registers it.)
        for (size_t v = 1; v < versions.size(); ++v) {
          ASSERT_LT(versions[v - 1].version, versions[v].version);
        }
        if (!versions.empty()) {
          size_t pick = rng.Uniform(versions.size());
          (void)graph.ImpactSet(versions[pick]);
          (void)graph.StalenessOf(versions[pick]);
          auto chain = embeddings.Lineage(name);
          if (chain.ok() && chain->size() > 1) {
            // A multi-hop chain is contiguous: each hop steps one version
            // down (a just-registered head may briefly lack its parent
            // edge, giving a single-element chain — never a torn one).
            ASSERT_EQ(chain->size(),
                      static_cast<size_t>(
                          ParseVersionedRef(chain->front()).version));
          }
        }
        (void)models.CheckEmbeddingSkew(embeddings);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  done.store(true);

  // Exactly one supersede event per non-initial registration, each heard
  // exactly once.
  const uint64_t expected_events =
      static_cast<uint64_t>(kEmbWriters) * (kVersionsPerWriter - 1);
  EXPECT_EQ(graph.num_events(), expected_events);
  EXPECT_EQ(heard.load(), expected_events);
  for (int w = 0; w < kEmbWriters; ++w) {
    const std::string name = "emb_w" + std::to_string(w);
    EXPECT_EQ(graph.VersionsOf(ArtifactKind::kEmbedding, name).size(),
              static_cast<size_t>(kVersionsPerWriter));
    // Full parent chain survives: latest walks back to v1.
    EXPECT_EQ(embeddings.Lineage(name).value().size(),
              static_cast<size_t>(kVersionsPerWriter));
    // All but the latest version were superseded (annotated stale).
    for (int v = 1; v < kVersionsPerWriter; ++v) {
      EXPECT_TRUE(graph.StalenessOf(EmbeddingArtifact(name, v)).has_value())
          << name << " v" << v;
    }
    EXPECT_FALSE(
        graph.StalenessOf(EmbeddingArtifact(name, kVersionsPerWriter))
            .has_value());
  }
  // The graph agrees with the model registry about consumers.
  auto skews = models.CheckEmbeddingSkew(embeddings).value();
  EXPECT_TRUE(skews.dangling.empty());
  for (const VersionSkew& skew : skews.skews) {
    EXPECT_LT(skew.pinned_version, skew.latest_version);
    EXPECT_EQ(skew.latest_version, kVersionsPerWriter);
  }
}

// The batched sort-merge PointInTimeJoin racing AppendBatch writers on the
// same offline tables: AsOfBatch holds one shared lock per shard while
// writers take the exclusive lock for out-of-order batches. Certifies under
// TSan that the shared/exclusive discipline holds across the whole batch
// sweep, and that every mid-churn join is internally consistent: correct
// shape, and leakage-free (every joined value's event time <= the spine
// timestamp — each source row carries an et_copy column duplicating its
// event time so the invariant is checkable from the output alone). After
// the writers drain, the merge join must agree byte-for-byte with the
// row-at-a-time reference on the final table state.
TEST_F(StressTest, ConcurrentPointInTimeJoinRacesAppendBatch) {
  constexpr int kJoinWriters = 2;
  constexpr int kBatchesPerWriter = 150;
  constexpr size_t kRowsPerBatch = 24;
  constexpr int kJoinsPerReader = 60;
  constexpr int64_t kJoinKeys = 16;
  constexpr Timestamp kHorizon = Hours(24 * 20);  // ~20 daily partitions.

  OfflineStore offline;
  SchemaPtr source_schema =
      Schema::Create({{"key", FeatureType::kInt64, false},
                      {"event_time", FeatureType::kTimestamp, false},
                      {"et_copy", FeatureType::kInt64, true}})
          .value();
  for (const char* name : {"pit_s0", "pit_s1"}) {
    OfflineTableOptions opt;
    opt.name = name;
    opt.schema = source_schema;
    opt.entity_column = "key";
    opt.time_column = "event_time";
    ASSERT_TRUE(offline.CreateTable(std::move(opt)).ok());
  }
  OfflineTable* s0 = offline.GetTable("pit_s0").value();
  OfflineTable* s1 = offline.GetTable("pit_s1").value();

  SchemaPtr spine_schema =
      Schema::Create({{"key", FeatureType::kInt64, false},
                      {"ts", FeatureType::kTimestamp, false}})
          .value();
  std::vector<Row> spine;
  {
    Rng rng(0x791e);
    for (int i = 0; i < 200; ++i) {
      spine.push_back(Row::CreateUnsafe(
          spine_schema,
          {Value::Int64(static_cast<int64_t>(rng.Uniform(kJoinKeys))),
           Value::Time(Seconds(1) +
                       static_cast<Timestamp>(rng.Uniform(kHorizon)))}));
    }
  }
  std::vector<JoinSource> sources(2);
  sources[0].table = s0;
  sources[0].prefix = "s0__";
  sources[1].table = s1;
  sources[1].prefix = "s1__";
  sources[1].max_age = Hours(24 * 5);

  std::vector<std::thread> threads;
  for (int w = 0; w < kJoinWriters; ++w) {
    OfflineTable* table = (w % 2 == 0) ? s0 : s1;
    threads.emplace_back([table, source_schema, w] {
      Rng rng(0xa9 + w);
      for (int b = 0; b < kBatchesPerWriter; ++b) {
        std::vector<Row> batch;
        batch.reserve(kRowsPerBatch);
        for (size_t i = 0; i < kRowsPerBatch; ++i) {
          // Random event times: perpetually late/out-of-order arrivals.
          Timestamp et = Seconds(1) +
                         static_cast<Timestamp>(rng.Uniform(kHorizon));
          batch.push_back(Row::CreateUnsafe(
              source_schema,
              {Value::Int64(static_cast<int64_t>(rng.Uniform(kJoinKeys))),
               Value::Time(et), Value::Int64(static_cast<int64_t>(et))}));
        }
        ASSERT_TRUE(table->AppendBatch(batch).ok());
      }
    });
  }
  // Two reader threads: one serial merge join, one sharded over 3
  // threads, both validating every mid-churn result.
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&spine, &sources, r] {
      JoinOptions options;
      options.max_threads = (r == 0) ? 1 : 3;
      for (int i = 0; i < kJoinsPerReader; ++i) {
        auto ts = PointInTimeJoin(spine, "key", "ts", sources, options);
        ASSERT_TRUE(ts.ok()) << ts.status();
        ASSERT_EQ(ts->rows.size(), spine.size());
        ASSERT_EQ(ts->schema->num_fields(), 4);  // key, ts, 2x et_copy.
        uint64_t nulls = 0;
        for (size_t row = 0; row < ts->rows.size(); ++row) {
          const Timestamp spine_ts = ts->rows[row].value(1).time_value();
          for (int col = 2; col < 4; ++col) {
            const Value& v = ts->rows[row].value(col);
            if (v.is_null()) {
              ++nulls;
              continue;
            }
            // Leakage-free: joined history never postdates the spine.
            ASSERT_LE(v.int64_value(), static_cast<int64_t>(spine_ts));
            if (col == 3) {  // s1 carries max_age.
              ASSERT_GE(v.int64_value(),
                        static_cast<int64_t>(spine_ts - sources[1].max_age));
            }
          }
        }
        ASSERT_EQ(ts->missing_cells, nulls);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Quiesced: the merge engine and the row-at-a-time reference must agree
  // exactly on the final table state.
  auto reference = PointInTimeJoinReference(spine, "key", "ts", sources);
  ASSERT_TRUE(reference.ok()) << reference.status();
  JoinOptions parallel;
  parallel.max_threads = 3;
  auto merged = PointInTimeJoin(spine, "key", "ts", sources, parallel);
  ASSERT_TRUE(merged.ok()) << merged.status();
  auto bytes = [](const TrainingSet& ts) {
    Encoder enc;
    enc.PutSchema(*ts.schema);
    enc.PutVarint64(ts.missing_cells);
    for (const Row& row : ts.rows) enc.PutRow(row);
    return enc.Release();
  };
  EXPECT_EQ(bytes(*merged), bytes(*reference));
  EXPECT_EQ(s0->num_rows() + s1->num_rows(),
            static_cast<uint64_t>(kJoinWriters) * kBatchesPerWriter *
                kRowsPerBatch);
}

}  // namespace
}  // namespace mlfs
