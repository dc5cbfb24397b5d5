#include "serving/feature_server.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/failpoint.h"
#include "common/threadpool.h"
#include "expr/bytecode.h"
#include "expr/parser.h"
#include "registry/registry.h"

namespace mlfs {
namespace {

double NowMicros() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Errors worth retrying: the store (or an injected fault standing in for a
/// flaky backend) failed to answer, as opposed to answering "no such value".
bool IsTransient(const Status& s) {
  switch (s.code()) {
    case StatusCode::kInternal:
    case StatusCode::kResourceExhausted:
    case StatusCode::kCorruption:
      return true;
    default:
      return false;
  }
}

/// Why an embedding feature has no value: the tier's load fault, or no
/// row for the entity.
std::string EmbeddingMissMessage(const Status& fault, const Value& entity) {
  return fault.ok() ? "no embedding for entity " + entity.ToString()
                    : fault.message();
}

/// Stable per-thread stripe assignment: threads round-robin onto stripes at
/// first use, so steady-state recording from a fixed reader pool is
/// contention-free.
size_t ThreadStripeSeed() {
  static std::atomic<size_t> next{0};
  thread_local const size_t seed =
      next.fetch_add(1, std::memory_order_relaxed);
  return seed;
}

}  // namespace

FeatureServer::FeatureServer(const OnlineStore* store,
                             FeatureServerOptions options,
                             const EmbeddingStore* embeddings,
                             const LineageGraph* lineage,
                             const FeatureRegistry* registry)
    : store_(store),
      embeddings_(embeddings),
      lineage_(lineage),
      registry_(registry),
      options_(options),
      metrics_(kMetricsStripes) {
  if (options_.batch_parallelism > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.batch_parallelism);
  }
}

EmbeddingTablePtr FeatureServer::ResolveEmbeddingFeature(
    const std::string& feature) const {
  // Online views win: a materialized view named like an embedding keeps
  // its pre-hydration behavior.
  if (embeddings_ == nullptr || store_->HasView(feature)) return nullptr;
  auto table = embeddings_->Resolve(feature);
  return table.ok() ? *table : nullptr;
}

std::string FeatureServer::StaleNoteArtifact(const std::string& feature,
                                             const ArtifactId& artifact) const {
  if (lineage_ == nullptr) return "";
  std::optional<StalenessInfo> info = lineage_->StalenessOf(artifact);
  if (!info.has_value()) return "";
  return feature + ": " + info->ToString();
}

std::string FeatureServer::StaleNote(const std::string& feature,
                                     const EmbeddingTablePtr& table) const {
  return StaleNoteArtifact(
      feature, table != nullptr ? EmbeddingArtifact(table->metadata().name,
                                                    table->metadata().version)
                                : ViewArtifact(feature));
}

std::optional<FeatureServer::ComputedFeature>
FeatureServer::ResolveComputedFeature(const std::string& feature) const {
  // Materialized views and embeddings win, preserving their pre-registry
  // serving behavior; request-time evaluation only backs names that
  // nothing else serves.
  if (registry_ == nullptr || store_->HasView(feature)) return std::nullopt;
  if (ResolveEmbeddingFeature(feature) != nullptr) return std::nullopt;
  StatusOr<RegisteredFeature> reg = registry_->Get(feature);
  if (!reg.ok()) return std::nullopt;
  ComputedFeature out;
  out.reg = std::move(*reg);
  out.mirror_view = SourceMirrorViewName(out.reg.def.source_table);
  out.program = CompiledProgramFor(out.reg);
  return out;
}

std::shared_ptr<const Program> FeatureServer::CompiledProgramFor(
    const RegisteredFeature& reg) const {
  const std::string key = reg.VersionedName();
  {
    std::lock_guard lock(compile_mu_);
    auto it = compile_cache_.find(key);
    if (it != compile_cache_.end()) return it->second;
  }
  // The mirror view carries the source table's full schema; until the
  // first ingest creates it there is nothing to evaluate against (every
  // entity would miss anyway), so failure is not cached.
  StatusOr<SchemaPtr> schema =
      store_->ViewSchema(SourceMirrorViewName(reg.def.source_table));
  if (!schema.ok()) return nullptr;
  StatusOr<ExprPtr> expr = ParseExpr(reg.def.expression);
  if (!expr.ok()) return nullptr;
  StatusOr<std::shared_ptr<const Program>> program =
      Program::Lower(**expr, *schema);
  if (!program.ok()) return nullptr;
  std::lock_guard lock(compile_mu_);
  return compile_cache_.emplace(key, std::move(*program)).first->second;
}

FeatureServer::~FeatureServer() = default;

void FeatureServer::RecordLatency(double micros,
                                  uint64_t num_requests) const {
  MetricsStripe& stripe = metrics_[ThreadStripeSeed() % kMetricsStripes];
  std::lock_guard lock(stripe.mu);
  for (uint64_t i = 0; i < num_requests; ++i) stripe.latency_us.Record(micros);
  stripe.requests += num_requests;
}

StatusOr<FeatureVector> FeatureServer::GetFeatures(
    const Value& entity_key, const std::vector<std::string>& features,
    Timestamp now) const {
  MLFS_FAILPOINT("feature_server.get");
  const double start = NowMicros();
  const uint32_t max_attempts = std::max<uint32_t>(1, options_.max_attempts);
  uint64_t retries = 0;
  FeatureVector out;
  out.names = features;
  out.values.reserve(features.size());
  for (const std::string& feature : features) {
    if (EmbeddingTablePtr table = ResolveEmbeddingFeature(feature)) {
      if (std::string note = StaleNote(feature, table); !note.empty()) {
        out.stale.push_back(std::move(note));
      }
      const float* vec = nullptr;
      Status fault;  // A tier load fault, as opposed to a missing key.
      if (entity_key.type() == FeatureType::kString) {
        auto lookup = table->Get(entity_key.string_value());
        if (lookup.ok()) {
          vec = *lookup;
        } else if (!lookup.status().IsNotFound()) {
          fault = lookup.status();
        }
      }
      if (vec == nullptr) {
        if (options_.missing_policy == MissingFeaturePolicy::kError) {
          retries_.fetch_add(retries, std::memory_order_relaxed);
          return Status::NotFound("feature '" + feature + "' unavailable: " +
                                  EmbeddingMissMessage(fault, entity_key));
        }
        out.values.push_back(Value::Null());
        ++out.missing;
        if (IsTransient(fault)) ++out.degraded;
        continue;
      }
      out.values.push_back(
          Value::Embedding(std::vector<float>(vec, vec + table->dim())));
      out.oldest_event_time =
          std::min(out.oldest_event_time, table->metadata().created_at);
      continue;
    }
    if (std::optional<ComputedFeature> comp = ResolveComputedFeature(feature)) {
      if (std::string note = StaleNoteArtifact(
              feature, FeatureArtifact(comp->reg.def.name, comp->reg.version));
          !note.empty()) {
        out.stale.push_back(std::move(note));
      }
      StatusOr<Row> row =
          comp->program != nullptr
              ? store_->Get(comp->mirror_view, entity_key, now)
              : StatusOr<Row>(Status::NotFound("no source rows ingested for '" +
                                               comp->reg.def.source_table +
                                               "'"));
      for (uint32_t attempt = 1;
           !row.ok() && IsTransient(row.status()) && attempt < max_attempts;
           ++attempt) {
        if (options_.initial_backoff_micros > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(
              options_.initial_backoff_micros << (attempt - 1)));
        }
        ++retries;
        row = store_->Get(comp->mirror_view, entity_key, now);
      }
      bool transient = false;
      StatusOr<Value> value = [&]() -> StatusOr<Value> {
        if (!row.ok()) {
          transient = IsTransient(row.status());
          return row.status();
        }
        ExprScratch scratch;
        return comp->program->EvalRow(*row, &scratch);
      }();
      if (!value.ok()) {
        if (options_.missing_policy == MissingFeaturePolicy::kError) {
          retries_.fetch_add(retries, std::memory_order_relaxed);
          return Status::NotFound("feature '" + feature +
                                  "' unavailable: " + value.status().message());
        }
        out.values.push_back(Value::Null());
        ++out.missing;
        if (transient) ++out.degraded;  // Retries exhausted, not a miss.
        continue;
      }
      // A NULL result of a live evaluation is the feature's value, not a
      // miss — exactly what the materializer would have logged.
      out.values.push_back(std::move(*value));
      const int time_idx =
          row->schema()->FieldIndex(comp->reg.source_time_column);
      if (time_idx >= 0) {
        out.oldest_event_time =
            std::min(out.oldest_event_time, row->value(time_idx).time_value());
      }
      continue;
    }
    if (std::string note = StaleNote(feature, nullptr); !note.empty()) {
      out.stale.push_back(std::move(note));
    }
    StatusOr<Row> row = store_->Get(feature, entity_key, now);
    for (uint32_t attempt = 1;
         !row.ok() && IsTransient(row.status()) && attempt < max_attempts;
         ++attempt) {
      if (options_.initial_backoff_micros > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            options_.initial_backoff_micros << (attempt - 1)));
      }
      ++retries;
      row = store_->Get(feature, entity_key, now);
    }
    if (!row.ok()) {
      const bool transient = IsTransient(row.status());
      if (options_.missing_policy == MissingFeaturePolicy::kError) {
        retries_.fetch_add(retries, std::memory_order_relaxed);
        return Status::NotFound("feature '" + feature +
                                "' unavailable: " + row.status().message());
      }
      out.values.push_back(Value::Null());
      ++out.missing;
      if (transient) ++out.degraded;  // Retries exhausted, not a miss.
      continue;
    }
    // Materialized views have layout {entity, event_time, value}.
    int value_idx = row->schema()->FieldIndex("value");
    int time_idx = row->schema()->FieldIndex("event_time");
    if (value_idx < 0 || time_idx < 0) {
      retries_.fetch_add(retries, std::memory_order_relaxed);
      return Status::FailedPrecondition(
          "view '" + feature + "' is not a materialized feature view");
    }
    out.values.push_back(row->value(value_idx));
    out.oldest_event_time =
        std::min(out.oldest_event_time, row->value(time_idx).time_value());
  }
  retries_.fetch_add(retries, std::memory_order_relaxed);
  if (out.degraded > 0) {
    degraded_features_.fetch_add(out.degraded, std::memory_order_relaxed);
    degraded_responses_.fetch_add(1, std::memory_order_relaxed);
  }
  RecordLatency(NowMicros() - start, 1);
  return out;
}

std::vector<StatusOr<FeatureVector>> FeatureServer::GetFeaturesBatch(
    const std::vector<Value>& entity_keys,
    const std::vector<std::string>& features, Timestamp now) const {
  const double start = NowMicros();
  const size_t n = entity_keys.size();
  const size_t num_views = features.size();
  std::vector<StatusOr<FeatureVector>> out(
      n, StatusOr<FeatureVector>(
             Status::Internal("GetFeaturesBatch: slot not filled")));
  if (n == 0) return out;
  const uint32_t max_attempts = std::max<uint32_t>(1, options_.max_attempts);

  // Stage 1 — fetch: one shard-grouped MultiGet per requested view, then
  // per-(entity, feature)-cell retry with backoff for transient errors.
  // Views are independent, so with batch_parallelism > 1 they fan out over
  // the pool; each task writes only its own column.
  std::vector<std::vector<StatusOr<Row>>> columns(num_views);
  // {value, event_time} field indices per view, from its first live row;
  // {-1, -1} when the view never produced a row in this batch.
  std::vector<std::pair<int, int>> layout(num_views, {-1, -1});
  // Views that hydrate straight from an embedding table: one
  // EmbeddingTable::MultiGet per view, no online-store traffic. A null
  // table means view j goes through the online path.
  struct EmbeddingColumn {
    EmbeddingTablePtr table;
    std::vector<const float*> rows;  // Null = missing key or load fault.
    /// The tier load fault that nulled this column's cold rows, if any.
    Status fault;
    /// Owned copies of the found rows when `table` is tiered: tier
    /// pointers only survive until the serving thread's next tiered read,
    /// and assembly (stage 2) runs after other views' fetches.
    std::vector<float> storage;
  };
  std::vector<EmbeddingColumn> emb_columns(num_views);
  // Per-view staleness annotation, shared by every entity in the batch.
  std::vector<std::string> stale_notes(num_views);

  // Serving-time computed features: registered definitions with no
  // materialized view evaluate here, over each entity's latest raw source
  // row. One shard-grouped mirror-view MultiGet per distinct source table
  // (shared across computed features of that table), then one vectorized
  // EvalBatch per feature over the rows found. Mirror fetches and
  // evaluation run before the parallel view stage.
  struct ComputedColumn {
    std::optional<ComputedFeature> comp;
    std::vector<StatusOr<Value>> cells;  // Per entity: value or status.
    std::vector<Timestamp> event_times;  // kMaxTimestamp where not found.
  };
  std::vector<ComputedColumn> computed(num_views);
  std::unordered_map<std::string, std::vector<StatusOr<Row>>> mirror_columns;
  if (registry_ != nullptr) {
    for (size_t j = 0; j < num_views; ++j) {
      computed[j].comp = ResolveComputedFeature(features[j]);
      if (!computed[j].comp.has_value()) continue;
      stale_notes[j] = StaleNoteArtifact(
          features[j], FeatureArtifact(computed[j].comp->reg.def.name,
                                       computed[j].comp->reg.version));
      if (computed[j].comp->program != nullptr) {
        mirror_columns.try_emplace(computed[j].comp->mirror_view);
      }
    }
    for (auto& [view, column] : mirror_columns) {
      column = store_->MultiGet(view, entity_keys, now);
      uint64_t retries = 0;
      for (size_t i = 0; i < n; ++i) {
        StatusOr<Row>& cell = column[i];
        for (uint32_t attempt = 1; !cell.ok() && IsTransient(cell.status()) &&
                                   attempt < max_attempts;
             ++attempt) {
          if (options_.initial_backoff_micros > 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(
                options_.initial_backoff_micros << (attempt - 1)));
          }
          ++retries;
          cell = store_->Get(view, entity_keys[i], now);
        }
      }
      if (retries) retries_.fetch_add(retries, std::memory_order_relaxed);
    }
    for (size_t j = 0; j < num_views; ++j) {
      ComputedColumn& cc = computed[j];
      if (!cc.comp.has_value()) continue;
      const Program* program = cc.comp->program.get();
      cc.cells.assign(
          n, StatusOr<Value>(Status::NotFound(
                 "no source rows ingested for '" +
                 cc.comp->reg.def.source_table + "'")));
      cc.event_times.assign(n, kMaxTimestamp);
      if (program == nullptr) continue;  // Mirror view does not exist yet.
      const std::vector<StatusOr<Row>>& mirror =
          mirror_columns[cc.comp->mirror_view];
      std::vector<const Row*> rows;
      std::vector<size_t> row_index;
      rows.reserve(n);
      row_index.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        if (!mirror[i].ok()) {
          cc.cells[i] = mirror[i].status();
          continue;
        }
        rows.push_back(&*mirror[i]);
        row_index.push_back(i);
      }
      if (rows.empty()) continue;
      ExprScratch scratch;
      RowPtrBatchSource batch_src(program->schema(), rows);
      const ColumnVector* res = nullptr;
      if (Status batch = program->EvalBatch(batch_src, &scratch, &res);
          batch.ok()) {
        for (size_t k = 0; k < rows.size(); ++k) {
          cc.cells[row_index[k]] = res->GetValue(k);
        }
      } else {
        // One failing row poisons the whole batch result; re-run the
        // found rows one at a time so each entity carries its own status
        // (bit-identical — EvalBatch reports what EvalRow would).
        for (size_t k = 0; k < rows.size(); ++k) {
          cc.cells[row_index[k]] = program->EvalRow(*rows[k], &scratch);
        }
      }
      const int time_idx = program->schema()->FieldIndex(
          cc.comp->reg.source_time_column);
      if (time_idx >= 0) {
        for (size_t k = 0; k < rows.size(); ++k) {
          cc.event_times[row_index[k]] =
              rows[k]->value(time_idx).time_value();
        }
      }
    }
  }

  auto fetch_view = [&](size_t j) {
    if (computed[j].comp.has_value()) return;  // Evaluated above.
    if (EmbeddingTablePtr table = ResolveEmbeddingFeature(features[j])) {
      EmbeddingColumn& emb = emb_columns[j];
      emb.table = std::move(table);
      stale_notes[j] = StaleNote(features[j], emb.table);
      std::vector<std::string> string_keys(n);
      for (size_t i = 0; i < n; ++i) {
        if (entity_keys[i].type() == FeatureType::kString) {
          string_keys[i] = entity_keys[i].string_value();
        }
        // Non-string keys keep "", which no table key matches (embedding
        // keys are non-empty by construction) — a plain miss.
      }
      emb.rows = emb.table->MultiGet(string_keys, &emb.fault);
      if (emb.table->tiered()) {
        const size_t dim = emb.table->dim();
        emb.storage.resize(n * dim);
        for (size_t i = 0; i < n; ++i) {
          if (emb.rows[i] == nullptr) continue;
          float* dst = emb.storage.data() + i * dim;
          std::copy(emb.rows[i], emb.rows[i] + dim, dst);
          emb.rows[i] = dst;
        }
      }
      return;
    }
    stale_notes[j] = StaleNote(features[j], nullptr);
    std::vector<StatusOr<Row>>& column = columns[j];
    column = store_->MultiGet(features[j], entity_keys, now);
    uint64_t retries = 0;
    for (size_t i = 0; i < n; ++i) {
      StatusOr<Row>& cell = column[i];
      for (uint32_t attempt = 1;
           !cell.ok() && IsTransient(cell.status()) && attempt < max_attempts;
           ++attempt) {
        if (options_.initial_backoff_micros > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(
              options_.initial_backoff_micros << (attempt - 1)));
        }
        ++retries;
        cell = store_->Get(features[j], entity_keys[i], now);
      }
      if (cell.ok() && layout[j].first < 0) {
        layout[j] = {cell->schema()->FieldIndex("value"),
                     cell->schema()->FieldIndex("event_time")};
      }
    }
    if (retries) retries_.fetch_add(retries, std::memory_order_relaxed);
  };
  if (pool_ != nullptr && num_views > 1) {
    ParallelFor(pool_.get(), 0, num_views,
                [&fetch_view](size_t j) { fetch_view(j); });
  } else {
    for (size_t j = 0; j < num_views; ++j) fetch_view(j);
  }

  // Stage 2 — assemble one FeatureVector per entity from the fetched
  // columns. Entities fail independently: kError fails only the entity
  // whose feature is unavailable.
  const bool any_failpoint = FailpointRegistry::Instance().AnyArmed();
  uint64_t degraded_features = 0, degraded_responses = 0;
  for (size_t i = 0; i < n; ++i) {
    if (any_failpoint) {
      // Per-request failpoint, one evaluation per entity, as in the
      // per-entity GetFeatures path.
      Status injected =
          FailpointRegistry::Instance().Evaluate("feature_server.get");
      if (!injected.ok()) {
        out[i] = std::move(injected);
        continue;
      }
    }
    FeatureVector fv;
    fv.names = features;
    fv.values.reserve(num_views);
    for (size_t j = 0; j < num_views; ++j) {
      if (!stale_notes[j].empty()) fv.stale.push_back(stale_notes[j]);
    }
    Status entity_error;
    for (size_t j = 0; j < num_views; ++j) {
      if (emb_columns[j].table != nullptr) {
        const EmbeddingColumn& emb = emb_columns[j];
        const float* vec = emb.rows[i];
        if (vec == nullptr) {
          // A null row of a key the table holds was nulled by the fault.
          const bool faulted =
              !emb.fault.ok() &&
              entity_keys[i].type() == FeatureType::kString &&
              emb.table->IndexOf(entity_keys[i].string_value()) >= 0;
          const Status fault = faulted ? emb.fault : Status::OK();
          if (options_.missing_policy == MissingFeaturePolicy::kError) {
            entity_error = Status::NotFound(
                "feature '" + features[j] + "' unavailable: " +
                EmbeddingMissMessage(fault, entity_keys[i]));
            break;
          }
          fv.values.push_back(Value::Null());
          ++fv.missing;
          if (IsTransient(fault)) ++fv.degraded;
          continue;
        }
        fv.values.push_back(Value::Embedding(
            std::vector<float>(vec, vec + emb.table->dim())));
        fv.oldest_event_time = std::min(fv.oldest_event_time,
                                        emb.table->metadata().created_at);
        continue;
      }
      if (computed[j].comp.has_value()) {
        const StatusOr<Value>& cell = computed[j].cells[i];
        if (!cell.ok()) {
          const bool transient = IsTransient(cell.status());
          if (options_.missing_policy == MissingFeaturePolicy::kError) {
            entity_error =
                Status::NotFound("feature '" + features[j] +
                                 "' unavailable: " + cell.status().message());
            break;
          }
          fv.values.push_back(Value::Null());
          ++fv.missing;
          if (transient) ++fv.degraded;
          continue;
        }
        // A NULL evaluation result is the feature's value, not a miss.
        fv.values.push_back(*cell);
        fv.oldest_event_time =
            std::min(fv.oldest_event_time, computed[j].event_times[i]);
        continue;
      }
      const StatusOr<Row>& cell = columns[j][i];
      if (!cell.ok()) {
        const bool transient = IsTransient(cell.status());
        if (options_.missing_policy == MissingFeaturePolicy::kError) {
          entity_error =
              Status::NotFound("feature '" + features[j] +
                               "' unavailable: " + cell.status().message());
          break;
        }
        fv.values.push_back(Value::Null());
        ++fv.missing;
        if (transient) ++fv.degraded;
        continue;
      }
      const auto [value_idx, time_idx] = layout[j];
      if (value_idx < 0 || time_idx < 0) {
        entity_error = Status::FailedPrecondition(
            "view '" + features[j] + "' is not a materialized feature view");
        break;
      }
      fv.values.push_back(cell->value(value_idx));
      fv.oldest_event_time =
          std::min(fv.oldest_event_time, cell->value(time_idx).time_value());
    }
    if (!entity_error.ok()) {
      out[i] = std::move(entity_error);
      continue;
    }
    if (fv.degraded > 0) {
      degraded_features += fv.degraded;
      ++degraded_responses;
    }
    out[i] = std::move(fv);
  }
  if (degraded_features > 0) {
    degraded_features_.fetch_add(degraded_features, std::memory_order_relaxed);
    degraded_responses_.fetch_add(degraded_responses,
                                  std::memory_order_relaxed);
  }
  // Each entity counts as one request at the batch's amortized latency.
  RecordLatency((NowMicros() - start) / static_cast<double>(n), n);
  return out;
}

Histogram FeatureServer::latency_histogram() const {
  Histogram merged;
  for (const MetricsStripe& stripe : metrics_) {
    std::lock_guard lock(stripe.mu);
    merged.Merge(stripe.latency_us);
  }
  return merged;
}

FeatureServerStats FeatureServer::stats() const {
  FeatureServerStats s;
  s.requests = requests();
  s.retries = retries_.load(std::memory_order_relaxed);
  s.degraded_features = degraded_features_.load(std::memory_order_relaxed);
  s.degraded_responses = degraded_responses_.load(std::memory_order_relaxed);
  if (embeddings_ != nullptr) s.embedding_tiers = embeddings_->TierStats();
  return s;
}

uint64_t FeatureServer::requests() const {
  uint64_t total = 0;
  for (const MetricsStripe& stripe : metrics_) {
    std::lock_guard lock(stripe.mu);
    total += stripe.requests;
  }
  return total;
}

}  // namespace mlfs
