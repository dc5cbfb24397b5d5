// The three workloads. Each times the stages it is built to stress, and
// runs short, separately timed probes of the other pipeline stages so
// every run reports every end-to-end metric (see README.md).

#include <algorithm>
#include <functional>
#include <iostream>
#include <thread>

#include "bench.h"

namespace mlfs::e2e {
namespace {

// Request batches pre-sampled per reader, cycled by the closed loop.
constexpr size_t kBatchesPerReader = 4096;
constexpr double kWarmupSeconds = 0.5;
// Groups a phase's samples are split into for median-of-groups figures.
constexpr size_t kGroups = 10;
// backfill_train: probe blocks (join, ANN, serving) spread over the run,
// one serving block per CPU of a 4-vCPU host.
constexpr size_t kBlocks = 4;
// Spine rows whose value columns are compared with the oracle.
constexpr size_t kJoinValueChecks = 2000;

std::function<bool()> Deadline(double seconds) {
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  return [end] { return NowNs() >= end; };
}

std::vector<std::vector<std::vector<Value>>> ReaderBatches(
    const Dataset& data, const Sizes& sizes, int readers, uint64_t seed) {
  // Distinct per reader so readers do not walk the cache in lockstep.
  std::vector<std::vector<std::vector<Value>>> batches;
  for (int r = 0; r < readers; ++r) {
    batches.push_back(SampleBatches(data, sizes.batch_keys, kBatchesPerReader,
                                    seed * 1000003 + r));
  }
  return batches;
}

// Keys the post-run output check reads: the hottest entities plus a spread
// of the sampled request keys.
std::vector<Value> CheckKeys(const Dataset& data,
                             const std::vector<std::vector<Value>>& batches) {
  std::vector<Value> keys;
  for (size_t r = 0; r < std::min<size_t>(64, data.by_rank.size()); ++r) {
    keys.push_back(Value::String(data.keys[data.by_rank[r]]));
  }
  for (size_t b = 0; b < batches.size(); b += batches.size() / 16 + 1) {
    keys.insert(keys.end(), batches[b].begin(), batches[b].end());
  }
  return keys;
}

void CheckTrainingSet(const Dataset& data, const TrainingSet& ts,
                      Report* report) {
  if (ts.rows.size() != data.spine.size()) {
    return report->CheckFailed("training set has " +
                               std::to_string(ts.rows.size()) + " rows, spine " +
                               std::to_string(data.spine.size()));
  }
  if (ts.missing_cells != data.expected_missing_cells) {
    return report->CheckFailed(
        "training set missing_cells " + std::to_string(ts.missing_cells) +
        ", expected " + std::to_string(data.expected_missing_cells));
  }
  // A label at or after the entity's final event time joins the values the
  // last materialization round logged.
  size_t checked = 0;
  for (size_t i = 0; i < ts.rows.size() && checked < kJoinValueChecks; ++i) {
    const Row& latest = *data.final_latest[data.spine_entity[i]];
    if (data.spine[i].value(1).time_value() < latest.value(1).time_value()) {
      continue;
    }
    ++checked;
    for (size_t f = 0; f < kNumViews; ++f) {
      if (!(ts.rows[i].value(2 + f) == Expected(f, latest))) {
        return report->CheckFailed(std::string("joined ") + kViews[f].first +
                                   " differs from the oracle at spine row " +
                                   std::to_string(i));
      }
    }
  }
  if (checked == 0) report->CheckFailed("no spine row after the last round");
}

void CheckNeighbors(
    const std::vector<std::string>& refs,
    const std::vector<StatusOr<std::vector<std::pair<std::string, float>>>>&
        results,
    Report* report) {
  for (size_t i = 0; i < results.size(); ++i) {
    report->Op(results[i].status(), "NearestEntitiesBatch");
    if (!results[i].ok()) continue;
    if (results[i]->size() != kAnnK) {
      return report->CheckFailed("ANN answer for " + refs[i] + " has " +
                                 std::to_string(results[i]->size()) +
                                 " neighbours");
    }
    for (const auto& [key, distance] : *results[i]) {
      if (key == refs[i]) {
        return report->CheckFailed("ANN answer for " + refs[i] +
                                   " contains the query key");
      }
    }
  }
}

// Store-wide counters now.
Counters Snapshot(FeatureStore& store) {
  Counters c;
  c.online = store.online().stats();
  c.server = store.server().stats();
  c.tier = store.embeddings().TierStats();
  for (const std::string& name : store.offline().TableNames()) {
    StatusOr<OfflineTable*> table = store.offline().GetTable(name);
    if (!table.ok()) continue;
    const OfflineStorageStats s = (*table)->storage_stats();
    c.sealed_segments += s.sealed_segments;
    c.spilled_segments += s.spilled_segments;
    c.spilled_bytes += s.spilled_bytes;
    c.maintenance_errors += s.maintenance_errors;
    c.readahead_issued += s.readahead.issued;
    c.readahead_wasted += s.readahead.wasted;
  }
  c.readahead_issued += c.tier.tier.readahead.issued;
  c.readahead_wasted += c.tier.tier.readahead.wasted;
  for (const auto& [name, expression] : kViews) {
    if (const RefreshState* state = store.orchestrator().GetState(name)) {
      c.entities_updated += state->entities_updated_total;
    }
  }
  return c;
}

void CommonGuards(const Counters& end, Report* report) {
  if (end.maintenance_errors > 0) {
    report->CheckFailed("fixture guard: maintenance_errors = " +
                        std::to_string(end.maintenance_errors));
  }
  if (end.server.degraded_responses > 0) {
    report->CheckFailed("fixture guard: degraded_responses = " +
                        std::to_string(end.server.degraded_responses));
  }
}

/// One serving request, timed by the client.
struct Request {
  int64_t end_ns = 0;
  double latency_us = 0;
  uint32_t keys = 0;
};

/// Requests of a serving phase and how many clients issued them at once.
struct ServeResult {
  int clients = 1;
  uint64_t failed = 0;
  std::vector<Request> requests;
};

// Issues one GetFeaturesBatch and records it in `result` (and as a span).
// A request fails on any non-OK entry, miss or degraded value.
void ServeOne(const FeatureServer& server,
              const std::vector<std::string>& features,
              const std::vector<Value>& keys, Timestamp now,
              Tracer::Buffer* trace, ServeResult* result) {
  const int64_t t0 = NowNs();
  const auto out = server.GetFeaturesBatch(keys, features, now);
  const int64_t t1 = NowNs();
  result->requests.push_back({t1, static_cast<double>(t1 - t0) * 1e-3,
                              static_cast<uint32_t>(keys.size())});
  bool failed = false;
  for (const auto& fv : out) {
    failed |= !fv.ok() || fv->missing > 0 || fv->degraded > 0;
  }
  result->failed += failed;
  if (trace != nullptr) {
    trace->Record("serving.GetFeaturesBatch", t0, t1, 0, trace->NextRequest(),
                  keys.size());
  }
}

// Closed loop: one ServeOne after another on each of `batches.size()`
// reader threads, cycling through that reader's batches, until `done()`.
ServeResult ServeLoop(const FeatureServer& server,
                      const std::vector<std::string>& features,
                      const std::vector<std::vector<std::vector<Value>>>& batches,
                      const std::function<bool()>& done, Timestamp now,
                      Tracer* tracer) {
  std::vector<ServeResult> per(batches.size());
  std::vector<std::thread> threads;
  for (size_t r = 0; r < batches.size(); ++r) {
    threads.emplace_back([&, r] {
      Tracer::Buffer* trace = tracer != nullptr ? tracer->NewBuffer() : nullptr;
      per[r].requests.reserve(1 << 18);
      const std::vector<std::vector<Value>>& pool = batches[r];
      for (size_t next = 0; !done(); next = (next + 1) % pool.size()) {
        ServeOne(server, features, pool[next], now, trace, &per[r]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ServeResult total;
  total.clients = static_cast<int>(batches.size());
  for (const ServeResult& r : per) {
    total.failed += r.failed;
    total.requests.insert(total.requests.end(), r.requests.begin(),
                          r.requests.end());
  }
  return total;
}

// Adds serve_keys_per_s, serve_p50_us and serve_p99_us. Requests are
// split by completion time into `groups` equal groups and each metric is
// its median over the groups, so a slow stretch of a shared host moves one
// group rather than the run's figure.
void ServeMetrics(ServeResult& serve, size_t groups, Report* report) {
  std::vector<Request>& reqs = serve.requests;
  report->attempted += reqs.size();
  report->failed += serve.failed;
  if (serve.failed > 0) {
    std::cerr << "e2e: " << serve.failed << " of " << reqs.size()
              << " serving requests failed\n";
  }
  std::sort(reqs.begin(), reqs.end(), [](const Request& a, const Request& b) {
    return a.end_ns < b.end_ns;
  });
  // With every client busy all the time, clients * keys / summed latency
  // is the keys served per second of wall time (Little's law).
  std::vector<double> rate, p50, p99;
  for (size_t g = 0; g < groups; ++g) {
    std::vector<double> lat;
    double keys = 0, secs = 0;
    for (size_t i = g * reqs.size() / groups;
         i < (g + 1) * reqs.size() / groups; ++i) {
      lat.push_back(reqs[i].latency_us);
      keys += reqs[i].keys;
      secs += reqs[i].latency_us * 1e-6;
    }
    rate.push_back(serve.clients * keys / secs);
    p50.push_back(Percentile(&lat, 50));
    p99.push_back(Percentile(&lat, 99));
  }
  report->Add("serve_keys_per_s", Median(rate), "keys/s");
  report->Add("serve_p50_us", Median(p50), "us");
  report->Add("serve_p99_us", Median(p99), "us");
  std::cerr << "e2e: " << reqs.size() << " serving requests from "
            << serve.clients << " client(s)\n";
}

// Repetitions of the training join and of the ANN batch, run in blocks at
// different points of a run; each metric is the median repetition.
void JoinReps(FeatureStore& store, const Dataset& data, int threads,
              int min_reps, double budget_s, bool check,
              Tracer::Buffer* trace, Report* report,
              std::vector<double>* secs) {
  std::vector<std::string> features;
  for (const auto& [name, expression] : kViews) features.emplace_back(name);
  JoinOptions options;
  options.max_threads = static_cast<uint32_t>(threads);
  const int64_t start = NowNs();
  for (int rep = 0; rep < min_reps || (NowNs() - start) * 1e-9 < budget_s;
       ++rep) {
    const int64_t t0 = NowNs();
    StatusOr<TrainingSet> ts =
        store.BuildTrainingSet(data.spine, "user", "ts", features, 0, options);
    const int64_t t1 = NowNs();
    report->Op(ts.status(), "BuildTrainingSet");
    if (!ts.ok()) return;
    secs->push_back(static_cast<double>(t1 - t0) * 1e-9);
    Record(trace, "serving.BuildTrainingSet", t0, t1, 0, 0, data.spine.size());
    if (check && rep == 0) CheckTrainingSet(data, *ts, report);
  }
}

void AnnReps(FeatureStore& store, const Dataset& data, double budget_s,
             Tracer::Buffer* trace, Report* report, std::vector<double>* secs) {
  // The first call of a block is untimed: it resolves (and on first use
  // builds) the index for the latest version.
  CheckNeighbors(data.ann_refs,
                 store.NearestEntitiesBatch(kEmbedding, data.ann_refs, kAnnK),
                 report);
  const int64_t start = NowNs();
  for (int rep = 0; rep < 4 || (NowNs() - start) * 1e-9 < budget_s; ++rep) {
    const PinnedTo pin(rep);
    const int64_t t0 = NowNs();
    const auto results =
        store.NearestEntitiesBatch(kEmbedding, data.ann_refs, kAnnK);
    const int64_t t1 = NowNs();
    secs->push_back(static_cast<double>(t1 - t0) * 1e-9);
    Record(trace, "embedding.NearestEntitiesBatch", t0, t1, 0, 0,
           data.ann_refs.size());
    for (const auto& r : results) report->Op(r.status(), "NearestEntitiesBatch");
  }
}

void AddJoinAnn(const Dataset& data, const std::vector<double>& join_secs,
                const std::vector<double>& ann_secs, Report* report) {
  report->Add("train_rows_per_s",
              static_cast<double>(data.spine.size()) / Median(join_secs),
              "rows/s");
  report->Add("ann_queries_per_s",
              static_cast<double>(data.ann_refs.size()) / Median(ann_secs),
              "queries/s");
}

// Adds the metrics every workload reports and, in the traced run, the
// per-layer breakdown. Counter deltas run from `before` (the start of the
// measured phases, after set-up) to now.
void Finish(const Dataset& data, FeatureStore& store,
            std::vector<std::vector<Value>> samples, const Counters& before,
            const std::vector<std::string>& features, double setup_s,
            const Args& args, Tracer* tracer, Report* report) {
  report->Add("setup_s", setup_s, "s");
  report->Add("peak_rss_mb", PeakRssMb(), "MiB");
  if (!args.trace) return;
  RunState state;
  state.store = &store;
  state.scratch_dir = args.workdir + "/replay";
  state.data = &data;
  state.features = features;
  state.sample_batches = std::move(samples);
  state.before = before;
  state.after = Snapshot(store);
  Breakdown(state, tracer, report);
  const Status written = tracer->Write(args.trace_out);
  if (!written.ok()) std::cerr << "e2e: " << written.ToString() << "\n";
}

}  // namespace

// online: nproc-1 closed-loop readers over resident data. Nothing offline
// runs while they are timed; the join and ANN probes run in two blocks,
// before and after the serving phase.
void RunOnline(const Args& args, const Threads& threads, Report* report) {
  const Sizes sizes = SizesFor("online", args.smoke);
  const Dataset data = Generate(sizes, args.seed);
  const auto batches = ReaderBatches(data, sizes, threads.readers, args.seed);
  Tracer tracer(args.trace);
  Tracer::Buffer* trace = tracer.NewBuffer();

  SetupTimes setup;
  auto made = SetUpMedian(data, sizes, args.workdir, /*computed=*/true,
                          /*replay_round=*/true, trace, &setup);
  report->Op(made.status(), "set-up");
  if (!made.ok()) return;
  FeatureStore& store = **made;
  const std::vector<std::string> features = ServedFeatures(true);
  const Timestamp now = store.clock().now();
  const Counters before = Snapshot(store);

  std::vector<double> join_secs, ann_secs;
  JoinReps(store, data, threads.join, 2, 0.1 * args.seconds, true, trace,
           report, &join_secs);
  AnnReps(store, data, 0.08 * args.seconds, trace, report, &ann_secs);

  ServeLoop(store.server(), features, batches, Deadline(kWarmupSeconds), now,
            nullptr);
  const Counters serve_before = Snapshot(store);
  ServeResult serve = ServeLoop(store.server(), features, batches,
                                Deadline(args.seconds), now, &tracer);
  const Counters serve_after = Snapshot(store);
  ServeMetrics(serve, kGroups, report);

  JoinReps(store, data, threads.join, 2, 0.1 * args.seconds, false, trace,
           report, &join_secs);
  AnnReps(store, data, 0.08 * args.seconds, trace, report, &ann_secs);
  AddJoinAnn(data, join_secs, ann_secs, report);
  // The set-up's history ingest and first round are this workload's only
  // ingest and materialization.
  report->Add("ingest_rows_per_s",
              static_cast<double>(data.history_rows()) / setup.ingest_s,
              "rows/s");
  report->Add("materialize_s", setup.materialize_s, "s");

  CheckServed(store, data, features, CheckKeys(data, batches[0]),
              /*history_only=*/true, now, report);
  const uint64_t gets = serve_after.online.gets - serve_before.online.gets;
  const uint64_t hits = serve_after.online.hits - serve_before.online.hits;
  if (gets == 0 || hits != gets) {
    report->CheckFailed("fixture guard: online hit ratio " +
                        std::to_string(hits) + "/" + std::to_string(gets));
  }
  if (serve_after.server.requests == serve_before.server.requests) {
    report->CheckFailed("fixture guard: no request was served");
  }
  CommonGuards(Snapshot(store), report);
  Finish(data, store, {batches[0].begin(), batches[0].begin() + 256},
         before, features, setup.total_s, args, &tracer, report);
}

// backfill_train: one client; a source table over its memory budget, a
// tiered embedding, the training join and ANN search. No online reads
// except the closing serving probe.
void RunBackfillTrain(const Args& args, const Threads& threads,
                      Report* report) {
  const Sizes sizes = SizesFor("backfill_train", args.smoke);
  const Dataset data = Generate(sizes, args.seed);
  Tracer tracer(args.trace);
  Tracer::Buffer* trace = tracer.NewBuffer();

  SetupTimes setup;
  auto made = SetUpMedian(data, sizes, args.workdir, /*computed=*/false,
                          /*replay_round=*/false, trace, &setup);
  report->Op(made.status(), "set-up");
  if (!made.ok()) return;
  FeatureStore& store = **made;
  OfflineTable* source = store.offline().GetTable(kSourceTable).value();

  const Counters before = Snapshot(store);
  int64_t ingest_ns = 0, materialize_ns = 0;
  std::vector<Timestamp> round_times = {store.clock().now()};
  for (const auto& day : data.day_chunks) {
    const PinnedTo pin(&day - data.day_chunks.data());
    for (const auto& chunk : day) {
      const int64_t t0 = NowNs();
      const Status s = store.Ingest(kSourceTable, chunk);
      const int64_t t1 = NowNs();
      ingest_ns += t1 - t0;
      report->Op(s, "Ingest");
      Record(trace, "core.Ingest", t0, t1, 0, 0, chunk.size());
    }
    // Ingest never maintains the source table; without this nothing seals
    // past the head threshold, compacts or spills.
    const int64_t t0 = NowNs();
    const Status maintained = source->RunMaintenance();
    const int64_t t1 = NowNs();
    ingest_ns += t1 - t0;
    report->Op(maintained, "RunMaintenance");
    Record(trace, "storage.offline.RunMaintenance", t0, t1);
    report->Op(TimedRound(store, trace, "registry.RunMaterialization",
                          &day == &data.day_chunks.back(), &materialize_ns,
                          &round_times)
                   .status(),
               "RunMaterialization");
  }
  report->Add("ingest_rows_per_s",
              static_cast<double>(data.day_rows()) / (ingest_ns * 1e-9),
              "rows/s");
  report->Add("materialize_s", materialize_ns * 1e-9, "s");

  // Join, ANN and the serving probe alternate in four blocks each, so
  // each figure's samples spread over the second half of the run.
  const Timestamp now = store.clock().now();
  const std::vector<std::string> features = ServedFeatures(false);
  const auto batches = ReaderBatches(data, sizes, 1, args.seed);
  std::vector<double> join_secs, ann_secs;
  ServeResult serve;
  const Counters before_ann = Snapshot(store);
  for (size_t block = 0; block < kBlocks; ++block) {
    JoinReps(store, data, threads.join, 1, 0.1 * args.seconds, block == 0,
             trace, report, &join_secs);
    AnnReps(store, data, 0.1 * args.seconds, trace, report, &ann_secs);
    const PinnedTo pin(block);  // The client thread inherits it.
    ServeLoop(store.server(), features, batches, Deadline(0.1), now, nullptr);
    ServeResult part = ServeLoop(store.server(), features, batches,
                                 Deadline(0.1 * args.seconds), now, nullptr);
    serve.failed += part.failed;
    serve.requests.insert(serve.requests.end(), part.requests.begin(),
                          part.requests.end());
  }
  const Counters after_ann = Snapshot(store);
  AddJoinAnn(data, join_secs, ann_secs, report);
  ServeMetrics(serve, kBlocks, report);  // One group per block.

  CheckServed(store, data, features, CheckKeys(data, batches[0]),
              /*history_only=*/false, now, report);
  const Counters end = Snapshot(store);
  if (end.spilled_segments == 0) {
    report->CheckFailed("fixture guard: no source segment spilled");
  }
  const uint64_t tier_misses =
      (after_ann.tier.tier.cold_misses - before_ann.tier.tier.cold_misses) +
      (after_ann.tier.tier.scan_cold_blocks -
       before_ann.tier.tier.scan_cold_blocks);
  if (tier_misses == 0) {
    report->CheckFailed("fixture guard: ANN search never left the hot tier");
  }
  CommonGuards(end, report);
  Finish(data, store, {batches[0].begin(), batches[0].begin() + 256},
         before, features, setup.total_s, args, &tracer, report);
}

}  // namespace mlfs::e2e
