// The traced run's per-layer breakdown. Facade calls hide the layer calls
// beneath them, so the breakdown replays a sample of the run's own inputs
// directly against each layer's public entry point — on scratch copies
// when the call mutates state — records each replay as a child span of the
// facade call it mirrors, and derives per-layer rates and self times from
// the spans. Counters come from the stats structs, as deltas over the
// measured phases.

#include <algorithm>
#include <iostream>

#include "bench.h"
#include "embedding/ann.h"
#include "expr/evaluator.h"
#include "registry/materializer.h"

namespace mlfs::e2e {
namespace {

// Ingest chunks replayed against the source table and the online mirror.
constexpr size_t kReplayChunks = 4;
// Facade ANN batches replayed with their index search.
constexpr int kAnnReplays = 3;

std::vector<uint64_t> SpanIds(const std::vector<Span>& spans,
                              const std::string& name) {
  std::vector<uint64_t> ids;
  for (const Span& s : spans) {
    if (name == s.name) ids.push_back(s.id);
  }
  return ids;
}

// Spans of the workload's main phase, or of set-up when it had none.
std::string MainOrSetup(const std::vector<Span>& spans, const char* main,
                        const char* setup) {
  return SpanIds(spans, main).empty() ? setup : main;
}

// The online store's cells go through Restore, which inserts them one by
// one as Puts would.
std::unique_ptr<OnlineStore> ScratchCopy(const OnlineStore& store) {
  auto copy = std::make_unique<OnlineStore>();
  MLFS_CHECK_OK(copy->Restore(store.Snapshot()));
  return copy;
}

// Feature-log rows, as the materializer writes them, for `cells`.
std::vector<Row> LogRows(const SchemaPtr& schema,
                         std::vector<MaterializedCell> cells) {
  std::vector<Row> rows;
  rows.reserve(cells.size());
  for (MaterializedCell& cell : cells) {
    rows.push_back(Row::CreateUnsafe(
        schema, {std::move(cell.entity), Value::Time(cell.event_time),
                 std::move(cell.value)}));
  }
  return rows;
}

// GetFeaturesBatch on sampled requests, each followed by the calls it makes
// underneath, replayed as its children: the store-wide resolve lookups per
// feature, one MultiGet per view, the computed feature's mirror MultiGet
// and EvalBatch, and the embedding MultiGet.
void ReplayServing(const RunState& st, Timestamp now, Tracer::Buffer* buf) {
  FeatureStore& store = *st.store;
  const OnlineStore& online = store.online();
  const EmbeddingTablePtr emb = store.embeddings().GetLatest(kEmbedding).value();
  const std::string mirror = SourceMirrorViewName(kSourceTable);
  const SchemaPtr mirror_schema = online.ViewSchema(mirror).value();
  const bool computed =
      std::find(st.features.begin(), st.features.end(), kComputed) !=
      st.features.end();
  const CompiledExpr computed_expr =
      CompiledExpr::Compile(kComputedExpression, mirror_schema).value();
  std::vector<CompiledExpr> view_exprs;
  for (const auto& [name, expression] : kViews) {
    view_exprs.push_back(
        CompiledExpr::Compile(expression, mirror_schema).value());
  }
  ExprScratch scratch;
  uint64_t sink = 0;

  for (const std::vector<Value>& keys : st.sample_batches) {
    const uint64_t req = buf->NextRequest();
    int64_t t0 = NowNs();
    const auto served = store.server().GetFeaturesBatch(keys, st.features, now);
    int64_t t1 = NowNs();
    const uint64_t parent = buf->Record("serving.GetFeaturesBatch.sampled", t0,
                                        t1, 0, req, keys.size());
    sink += served.size();

    t0 = NowNs();
    for (const std::string& f : st.features) {
      // The lookups the server makes per requested feature (see
      // FeatureServer::GetFeaturesBatch): a view is probed twice, an
      // embedding goes through the computed and the view resolution paths,
      // a computed feature through the view and embedding checks first.
      if (f == kEmbedding) {
        sink += online.HasView(f) + online.HasView(f) + online.HasView(f);
        sink += store.embeddings().Resolve(f).ok();
        sink += store.embeddings().Resolve(f).ok();
        sink += store.lineage()
                    .StalenessOf(EmbeddingArtifact(f, emb->metadata().version))
                    .has_value();
      } else if (f == kComputed) {
        sink += online.HasView(f) + online.HasView(f);
        sink += store.embeddings().Resolve(f).ok();
        const auto reg = store.registry().Get(f);
        sink += store.lineage()
                    .StalenessOf(FeatureArtifact(f, reg.ok() ? reg->version : 0))
                    .has_value();
      } else {
        sink += online.HasView(f) + online.HasView(f);
        sink += store.lineage().StalenessOf(ViewArtifact(f)).has_value();
      }
    }
    t1 = NowNs();
    buf->Record("serving.resolve", t0, t1, parent, req, st.features.size());

    for (const std::string& f : st.features) {
      if (f == kEmbedding) {
        t0 = NowNs();
        std::vector<std::string> string_keys;
        string_keys.reserve(keys.size());
        for (const Value& k : keys) string_keys.push_back(k.string_value());
        const std::vector<const float*> rows = emb->MultiGet(string_keys);
        std::vector<float> copies;
        if (emb->tiered()) {  // The server copies tier rows out at once.
          copies.resize(rows.size() * emb->dim());
          for (size_t i = 0; i < rows.size(); ++i) {
            if (rows[i] != nullptr) {
              std::copy(rows[i], rows[i] + emb->dim(),
                        copies.data() + i * emb->dim());
            }
          }
        }
        t1 = NowNs();
        buf->Record("embedding.MultiGet", t0, t1, parent, req, keys.size());
        sink += rows.size() + copies.size();
        continue;
      }
      const bool is_computed = f == kComputed;
      t0 = NowNs();
      const auto cells = online.MultiGet(is_computed ? mirror : f, keys, now);
      t1 = NowNs();
      buf->Record("storage.online.MultiGet", t0, t1, parent, req, keys.size());
      if (!is_computed) continue;
      std::vector<const Row*> rows;
      for (const auto& cell : cells) {
        if (cell.ok()) rows.push_back(&*cell);
      }
      t0 = NowNs();
      const ColumnVector* out = nullptr;
      const Status s = computed_expr.EvalBatch(
          RowPtrBatchSource(mirror_schema, rows), &scratch, &out);
      t1 = NowNs();
      buf->Record("expr.EvalBatch", t0, t1, parent, req, rows.size());
      sink += s.ok();
    }

    // Workloads without a computed feature evaluate the view expressions
    // only inside materialization; replay them over the same request-sized
    // batch of latest source rows.
    if (!computed) {
      std::vector<const Row*> rows;
      for (const Value& k : keys) {
        const std::string& key = k.string_value();
        rows.push_back(st.data->final_latest[std::strtoul(key.c_str() + 1,
                                                          nullptr, 10)]);
      }
      for (const CompiledExpr& expr : view_exprs) {
        t0 = NowNs();
        const ColumnVector* out = nullptr;
        const Status s = expr.EvalBatch(
            RowPtrBatchSource(st.data->schema, rows), &scratch, &out);
        t1 = NowNs();
        buf->Record("expr.EvalBatch", t0, t1, 0, req, rows.size());
        sink += s.ok();
      }
    }
  }
  if (sink == 0) std::cerr << "e2e: empty serving replay\n";
}

// The last real Ingest calls' chunks, replayed as their children:
// AppendBatch on a scratch source table, rebuilt untimed through the same
// calls as the live one (every earlier chunk, and the per-day
// RunMaintenance where the workload issues it), and the mirror Puts on a
// copy of the online store; then RunMaintenance on the scratch table.
void ReplayIngest(const RunState& st, const std::vector<uint64_t>& ingest_spans,
                  bool maintains, Tracer::Buffer* buf) {
  const Dataset& data = *st.data;
  const OfflineTable* source =
      st.store->offline().GetTable(kSourceTable).value();
  OfflineTableOptions options = source->options();
  if (options.memory_budget_bytes > 0) options.spill_dir = st.scratch_dir;
  std::unique_ptr<OfflineTable> scratch = OfflineTable::Create(options).value();

  // Ingest calls in order, each flagged when a day (and maintenance) ends.
  std::vector<std::pair<const std::vector<Row>*, bool>> calls;
  for (const auto& chunk : data.history_chunks) calls.emplace_back(&chunk, false);
  if (!data.day_chunks.empty()) {
    for (const auto& chunk : data.history_chunks) {
      MLFS_CHECK_OK(scratch->AppendBatch(chunk));
    }
    calls.clear();
    for (const auto& day : data.day_chunks) {
      for (const auto& chunk : day) {
        calls.emplace_back(&chunk, maintains && &chunk == &day.back());
      }
    }
  }
  const size_t n = std::min({kReplayChunks, calls.size(), ingest_spans.size()});
  for (size_t i = 0; i + n < calls.size(); ++i) {
    MLFS_CHECK_OK(scratch->AppendBatch(*calls[i].first));
    if (calls[i].second) MLFS_CHECK_OK(scratch->RunMaintenance());
  }

  std::unique_ptr<OnlineStore> online = ScratchCopy(st.store->online());
  const std::string mirror = SourceMirrorViewName(kSourceTable);
  for (size_t i = 0; i < n; ++i) {
    const std::vector<Row>& chunk = *calls[calls.size() - n + i].first;
    const uint64_t parent = ingest_spans[ingest_spans.size() - n + i];
    const uint64_t req = buf->NextRequest();
    int64_t t0 = NowNs();
    MLFS_CHECK_OK(scratch->AppendBatch(chunk));
    int64_t t1 = NowNs();
    buf->Record("storage.offline.source.AppendBatch", t0, t1, parent, req,
                chunk.size());
    t0 = NowNs();
    for (const Row& row : chunk) {
      MLFS_CHECK_OK(online->Put(mirror, row.value(0), row,
                                row.value(1).time_value(),
                                row.value(1).time_value()));
    }
    t1 = NowNs();
    buf->Record("storage.online.Put", t0, t1, parent, req, chunk.size());
  }
  const int64_t t0 = NowNs();
  MLFS_CHECK_OK(scratch->RunMaintenance());
  buf->Record("storage.offline.RunMaintenance.replay", t0, NowNs(), 0,
              buf->NextRequest(), 1);
}

// The training join taken apart: SpineIndex::Build, then a serial
// BuildTrainingSet on the prebuilt index with one AsOfBatch per feature
// log (the merge join's reads) replayed as its children.
void ReplayJoin(const RunState& st, Tracer::Buffer* buf) {
  FeatureStore& store = *st.store;
  const std::vector<Row>& spine = st.data->spine;
  int64_t t0 = NowNs();
  const SpineIndex index = SpineIndex::Build(spine, "user", "ts").value();
  int64_t t1 = NowNs();
  buf->Record("serving.SpineIndex::Build", t0, t1, 0, buf->NextRequest(),
              spine.size());

  std::vector<std::string> features;
  for (const auto& [name, expression] : kViews) features.emplace_back(name);
  const uint64_t req = buf->NextRequest();
  JoinOptions serial;
  serial.max_threads = 1;
  t0 = NowNs();
  StatusOr<TrainingSet> ts = store.BuildTrainingSet(index, features, 0, serial);
  t1 = NowNs();
  MLFS_CHECK_OK(ts.status());
  const uint64_t parent = buf->Record("serving.BuildTrainingSet.serial", t0, t1,
                                      0, req, spine.size());
  ts = TrainingSet{};

  std::vector<AsOfRequest> requests(index.sorted_rows().size());
  for (size_t p = 0; p < requests.size(); ++p) {
    const uint32_t r = index.sorted_rows()[p];
    requests[p] = {index.keys()[r], index.times()[r]};
  }
  for (const std::string& f : features) {
    const OfflineTable* log =
        store.offline().GetTable(Materializer::LogTableName(f)).value();
    const SchemaPtr& schema = log->options().schema;
    const int value_idx = schema->FieldIndex("value");
    const std::vector<int> columns = {value_idx};
    AsOfReadOptions options;
    options.columns = columns;
    options.projected_schema = Schema::Create({schema->field(value_idx)}).value();
    std::vector<uint64_t> misses;
    options.miss_bitmap = &misses;
    std::vector<Row> results(requests.size());
    t0 = NowNs();
    MLFS_CHECK_OK(log->AsOfBatch(requests, results, options));
    t1 = NowNs();
    buf->Record("storage.offline.AsOfBatch", t0, t1, parent, req,
                requests.size());
  }
}

// NearestEntitiesBatch with its index's BatchSearch replayed as the child.
void ReplayAnn(const RunState& st, Tracer::Buffer* buf) {
  FeatureStore& store = *st.store;
  const EmbeddingTablePtr table =
      store.embeddings().GetLatest(kEmbedding).value();
  std::unique_ptr<AnnIndex> index;
  if (table->tiered()) {
    index = MakeTieredBruteForceIndex(table);
    MLFS_CHECK_OK(index->Build(nullptr, 0, 0));
  } else {
    index = MakeBruteForceIndex();
    MLFS_CHECK_OK(
        index->Build(table->raw().data(), table->size(), table->dim()));
  }
  const std::vector<std::string>& refs = st.data->ann_refs;
  std::vector<float> queries(refs.size() * table->dim());
  for (size_t i = 0; i < refs.size(); ++i) {
    table->CopyRow(static_cast<size_t>(table->IndexOf(refs[i])),
                   queries.data() + i * table->dim());
  }
  for (int rep = 0; rep < kAnnReplays; ++rep) {
    const uint64_t req = buf->NextRequest();
    int64_t t0 = NowNs();
    const auto results = store.NearestEntitiesBatch(kEmbedding, refs, kAnnK);
    int64_t t1 = NowNs();
    const uint64_t parent = buf->Record("embedding.NearestEntitiesBatch.sampled",
                                        t0, t1, 0, req, refs.size());
    t0 = NowNs();
    MLFS_CHECK_OK(
        index->BatchSearch(queries.data(), refs.size(), kAnnK + 1).status());
    t1 = NowNs();
    buf->Record("embedding.AnnIndex::BatchSearch", t0, t1, parent, req,
                refs.size());
  }
}

// Cost of recording one span, so the traced run can state its overhead.
double SpanCostNs() {
  Tracer tracer(true);
  Tracer::Buffer* buf = tracer.NewBuffer();
  constexpr int kSpans = 200000;
  const int64_t t0 = NowNs();
  for (int i = 0; i < kSpans; ++i) {
    const int64_t now = NowNs();
    buf->Record("calibrate", now, now, 0, buf->NextRequest(), 1);
  }
  return static_cast<double>(NowNs() - t0) / kSpans;
}

struct Derived {
  const std::map<std::string, SpanTotals>& totals;
  Report* report;

  const SpanTotals& Of(const std::string& name) const {
    static const SpanTotals kNone;
    auto it = totals.find(name);
    return it == totals.end() ? kNone : it->second;
  }
  // Nanoseconds per item over every span named `name`, with the item base.
  void PerItem(const std::string& name, const std::string& metric,
               const std::string& base) const {
    const SpanTotals& t = Of(name);
    report->Add(metric, t.items == 0 ? 0 : t.total_ns / t.items, "ns");
    report->Add(base, static_cast<double>(t.items), "count");
  }
  double MedianNs(const std::string& name) const {
    return Median(Of(name).durations_ns);
  }
  double SumNs(const std::string& name) const { return Of(name).total_ns; }
};

}  // namespace

void ReplayRound(FeatureStore& store,
                 const std::vector<Timestamp>& earlier_rounds, uint64_t parent,
                 uint64_t request, Tracer::Buffer* buf) {
  const Timestamp now = store.clock().now();
  const OfflineTable* source = store.offline().GetTable(kSourceTable).value();
  std::unique_ptr<OnlineStore> online = ScratchCopy(store.online());
  for (const auto& [name, expression] : kViews) {
    int64_t t0 = NowNs();
    const CompiledExpr expr =
        CompiledExpr::Compile(expression, source->options().schema).value();
    int64_t t1 = NowNs();
    buf->Record("expr.Compile", t0, t1, parent, request, 1);

    t0 = NowNs();
    std::vector<MaterializedCell> cells =
        source->EvalLatestPerEntityAsOf(now, expr).value();
    t1 = NowNs();
    buf->Record("storage.offline.EvalLatestPerEntityAsOf", t0, t1, parent,
                request, cells.size());

    // The scratch log goes through the live log's history of calls: one
    // AppendBatch and RunMaintenance per earlier round, whose inputs the
    // source still answers as of that round's time (later events are all
    // newer). A snapshot copy would size its postings exactly and make
    // the next append reallocate every one of them.
    OfflineTableOptions options;
    options.name = Materializer::LogTableName(name);
    options.schema = Schema::Create({{"entity", FeatureType::kString, false},
                                     {"event_time", FeatureType::kTimestamp,
                                      false},
                                     {"value", expr.output_type(), true}})
                         .value();
    options.entity_column = "entity";
    options.time_column = "event_time";
    std::unique_ptr<OfflineTable> log = OfflineTable::Create(options).value();
    for (Timestamp t : earlier_rounds) {
      MLFS_CHECK_OK(log->AppendBatch(LogRows(
          options.schema, source->EvalLatestPerEntityAsOf(t, expr).value())));
      MLFS_CHECK_OK(log->RunMaintenance());
    }
    if (!online->HasView(name)) {
      MLFS_CHECK_OK(online->CreateView(name, options.schema));
    }
    const std::vector<Row> rows = LogRows(options.schema, cells);
    t0 = NowNs();
    for (size_t i = 0; i < rows.size(); ++i) {
      MLFS_CHECK_OK(online->Put(name, rows[i].value(0), rows[i],
                                rows[i].value(1).time_value(), now));
    }
    t1 = NowNs();
    buf->Record("storage.online.Put.round", t0, t1, parent, request,
                rows.size());
    t0 = NowNs();
    MLFS_CHECK_OK(log->AppendBatch(rows));
    t1 = NowNs();
    buf->Record("storage.offline.log.AppendBatch", t0, t1, parent, request,
                rows.size());
    t0 = NowNs();
    MLFS_CHECK_OK(log->RunMaintenance());
    t1 = NowNs();
    buf->Record("storage.offline.log.RunMaintenance", t0, t1, parent, request,
                1);
  }
}

void Breakdown(const RunState& st, Tracer* tracer, Report* report) {
  FeatureStore& store = *st.store;
  const Timestamp now = store.clock().now();
  Tracer::Buffer* buf = tracer->NewBuffer();
  const std::vector<Span> real = tracer->Spans();
  const std::string round_name =
      MainOrSetup(real, "registry.RunMaterialization", "setup.RunMaterialization");
  const std::string ingest_name = MainOrSetup(real, "core.Ingest", "setup.Ingest");
  const std::vector<uint64_t> rounds = SpanIds(real, round_name);

  const int64_t replay_start = NowNs();
  ReplayServing(st, now, buf);
  ReplayIngest(st, SpanIds(real, ingest_name),
               !SpanIds(real, "storage.offline.RunMaintenance").empty(), buf);
  ReplayJoin(st, buf);
  ReplayAnn(st, buf);
  std::cerr << "e2e: replays took " << (NowNs() - replay_start) * 1e-9
            << " s\n";

  const std::vector<Span> spans = tracer->Spans();
  const std::map<std::string, SpanTotals> totals = TotalsByName(spans);
  const Derived d{totals, report};

  d.PerItem("serving.resolve", "serving.resolve_ns_per_feature",
            "serving.resolve_features");
  const std::vector<double> batch_self =
      SelfTimesNs(spans, "serving.GetFeaturesBatch.sampled");
  report->Add("serving.batch_self_us", Median(batch_self) * 1e-3, "us");
  report->Add("serving.batch_samples", static_cast<double>(batch_self.size()),
              "count");
  d.PerItem("storage.online.MultiGet", "storage.online.multiget_ns_per_key",
            "storage.online.multiget_keys");
  d.PerItem("storage.online.Put", "storage.online.put_ns_per_row",
            "storage.online.put_rows");
  d.PerItem("expr.EvalBatch", "expr.eval_ns_per_row", "expr.eval_rows");
  report->Add("expr.compile_us", d.MedianNs("expr.Compile") * 1e-3, "us");
  report->Add("expr.compiles", static_cast<double>(d.Of("expr.Compile").count),
              "count");
  d.PerItem("embedding.MultiGet", "embedding.multiget_ns_per_key",
            "embedding.multiget_keys");
  d.PerItem(ingest_name, "core.ingest_ns_per_row", "core.ingest_rows");
  d.PerItem("storage.offline.source.AppendBatch",
            "storage.offline.source_append_ns_per_row",
            "storage.offline.source_append_rows");
  d.PerItem("storage.offline.log.AppendBatch",
            "storage.offline.log_append_ns_per_row",
            "storage.offline.log_append_rows");

  // Source-table maintenance: the workload's own calls where it makes
  // them (backfill_train), else the replay on the scratch copy.
  const std::string maintenance =
      MainOrSetup(spans, "storage.offline.RunMaintenance",
                  "storage.offline.RunMaintenance.replay");
  report->Add("storage.offline.maintenance_ms", d.MedianNs(maintenance) * 1e-6,
              "ms");
  report->Add("storage.offline.maintenance_calls",
              static_cast<double>(d.Of(maintenance).count), "count");

  // One round split by the calls it makes (all summed over the views).
  // Only the replayed round has children; its self time is the round's
  // own work: row building, lineage and bookkeeping.
  report->Add("registry.round_ms", d.MedianNs(round_name) * 1e-6, "ms");
  report->Add("registry.round_self_ms",
              SelfTimesNs(spans, round_name).back() * 1e-6, "ms");
  report->Add("registry.rounds", static_cast<double>(rounds.size()), "count");
  report->Add("storage.offline.eval_latest_ms",
              d.SumNs("storage.offline.EvalLatestPerEntityAsOf") * 1e-6, "ms");
  report->Add("registry.round_online_put_ms",
              d.SumNs("storage.online.Put.round") * 1e-6, "ms");
  report->Add("registry.round_log_append_ms",
              d.SumNs("storage.offline.log.AppendBatch") * 1e-6, "ms");
  report->Add("storage.offline.log_maintenance_ms",
              d.SumNs("storage.offline.log.RunMaintenance") * 1e-6, "ms");

  report->Add("serving.spine_index_ms",
              d.MedianNs("serving.SpineIndex::Build") * 1e-6, "ms");
  const std::vector<double> join_self =
      SelfTimesNs(spans, "serving.BuildTrainingSet.serial");
  report->Add("serving.join_self_ms", Median(join_self) * 1e-6, "ms");
  report->Add("serving.join_spine_rows",
              static_cast<double>(st.data->spine.size()), "count");
  d.PerItem("storage.offline.AsOfBatch", "storage.offline.asof_ns_per_request",
            "storage.offline.asof_requests");
  report->Add("embedding.ann_batch_ms",
              d.MedianNs("embedding.AnnIndex::BatchSearch") * 1e-6, "ms");
  report->Add("embedding.ann_queries",
              static_cast<double>(st.data->ann_refs.size()), "count");

  // Counters over the measured phases (set-up excluded).
  const Counters& b = st.before;
  const Counters& a = st.after;
  const auto count = [report](const char* name, double v) {
    report->Add(name, v, "count");
  };
  const EmbeddingTierStats& tb = b.tier.tier;
  const EmbeddingTierStats& ta = a.tier.tier;
  const double scanned =
      static_cast<double>((ta.scans - tb.scans) * ta.total_blocks);
  const double scan_cold = static_cast<double>(ta.scan_cold_blocks -
                                               tb.scan_cold_blocks);
  report->Add("io.tier.hit_ratio",
              scanned == 0 ? 0 : (scanned - scan_cold) / scanned, "ratio");
  count("io.tier.scanned_blocks", scanned);
  count("io.tier.scan_cold_blocks", scan_cold);
  count("io.tier.misses", static_cast<double>(ta.cold_misses - tb.cold_misses));
  count("io.tier.promotions",
        static_cast<double>(ta.promotions - tb.promotions));
  count("io.readahead.issued",
        static_cast<double>(a.readahead_issued - b.readahead_issued));
  count("io.readahead.wasted",
        static_cast<double>(a.readahead_wasted - b.readahead_wasted));
  count("storage.offline.sealed_segments",
        static_cast<double>(a.sealed_segments));
  count("storage.offline.spilled_segments",
        static_cast<double>(a.spilled_segments));
  report->Add("storage.offline.spilled_mb",
              static_cast<double>(a.spilled_bytes) / (1 << 20), "MiB");
  count("storage.offline.maintenance_errors",
        static_cast<double>(a.maintenance_errors - b.maintenance_errors));
  const double gets = static_cast<double>(a.online.gets - b.online.gets);
  report->Add("storage.online.hit_ratio",
              gets == 0 ? 0 : (a.online.hits - b.online.hits) / gets, "ratio");
  count("storage.online.gets", gets);
  count("storage.online.puts", static_cast<double>(a.online.puts - b.online.puts));
  count("storage.online.stale_writes",
        static_cast<double>(a.online.stale_writes - b.online.stale_writes));
  count("serving.retries", static_cast<double>(a.server.retries - b.server.retries));
  count("serving.degraded_responses",
        static_cast<double>(a.server.degraded_responses -
                            b.server.degraded_responses));
  count("registry.entities_updated",
        static_cast<double>(a.entities_updated - b.entities_updated));

  count("trace.spans", static_cast<double>(spans.size()));
  report->Add("trace.span_cost_ns", SpanCostNs(), "ns");
}

}  // namespace mlfs::e2e
