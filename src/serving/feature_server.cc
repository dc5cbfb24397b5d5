#include "serving/feature_server.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/failpoint.h"
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

/// Stable per-thread stripe assignment: threads round-robin onto stripes at
/// first use, so steady-state recording from a fixed reader pool is
/// contention-free.
size_t ThreadStripeSeed() {
  static std::atomic<size_t> next{0};
  thread_local const size_t seed =
      next.fetch_add(1, std::memory_order_relaxed);
  return seed;
}

/// One requested feature's value for one entity, with the event time it
/// was computed or materialized at.
struct Cell {
  Value value;
  Timestamp event_time = kMaxTimestamp;
};
using Cells = std::vector<StatusOr<Cell>>;

/// Cells of a materialized view {entity, event_time, value}. A view
/// without that layout fails every entity it has a row for.
Cells ViewCells(const std::string& view,
                const std::vector<StatusOr<Row>>& rows) {
  Cells cells;
  cells.reserve(rows.size());
  // {value, event_time} field indices, from the first live row: a view's
  // rows share its schema.
  std::optional<std::pair<int, int>> layout;
  for (const StatusOr<Row>& row : rows) {
    if (!row.ok()) {
      cells.emplace_back(row.status());
      continue;
    }
    if (!layout.has_value()) {
      layout.emplace(row->schema()->FieldIndex("value"),
                     row->schema()->FieldIndex("event_time"));
    }
    const auto [value_idx, time_idx] = *layout;
    if (value_idx < 0 || time_idx < 0) {
      cells.emplace_back(Status::FailedPrecondition(
          "view '" + view + "' is not a materialized feature view"));
      continue;
    }
    cells.emplace_back(
        Cell{row->value(value_idx), row->value(time_idx).time_value()});
  }
  return cells;
}

/// Cells of an embedding feature from one EmbeddingTable::MultiGet. Found
/// rows are copied out at once: a tiered table's row pointers only live
/// until the thread's next tiered read.
Cells EmbeddingCells(const EmbeddingTable& table,
                     const std::vector<Value>& keys) {
  // Non-string keys stay "", which no table key matches (embedding keys
  // are non-empty by construction) — a plain miss.
  std::vector<std::string> string_keys(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    if (keys[i].type() == FeatureType::kString) {
      string_keys[i] = keys[i].string_value();
    }
  }
  Status fault;  // A tier load fault, as opposed to a missing key.
  const std::vector<const float*> rows = table.MultiGet(string_keys, &fault);
  Cells cells;
  cells.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    if (rows[i] != nullptr) {
      cells.emplace_back(Cell{
          Value::Embedding(std::vector<float>(rows[i], rows[i] + table.dim())),
          table.metadata().created_at});
    } else if (!fault.ok() && table.IndexOf(string_keys[i]) >= 0) {
      cells.emplace_back(fault);  // A held key's row nulled by the fault.
    } else {
      cells.emplace_back(
          Status::NotFound("no embedding for entity " + keys[i].ToString()));
    }
  }
  return cells;
}

/// Cells of a computed feature: `program` over each entity's mirror row
/// in one EvalBatch. A row whose evaluation fails carries its own error.
Cells ComputedCells(const Program& program, const std::string& time_column,
                    const std::vector<StatusOr<Row>>& mirror) {
  std::vector<const Row*> rows;
  rows.reserve(mirror.size());
  for (const StatusOr<Row>& row : mirror) {
    if (row.ok()) rows.push_back(&*row);
  }
  ExprScratch scratch;
  const ColumnVector* values = nullptr;
  Status load;  // A column-load failure fails every found row.
  if (!rows.empty()) {
    Status s = program.EvalBatch(RowPtrBatchSource(program.schema(), rows),
                                 &scratch, &values);
    if (values == nullptr) load = std::move(s);
  }
  const int time_idx = program.schema()->FieldIndex(time_column);
  auto error = scratch.row_errors().begin();
  Cells cells;
  cells.reserve(mirror.size());
  size_t k = 0;  // Index into `rows`.
  for (const StatusOr<Row>& row : mirror) {
    if (!row.ok()) {
      cells.emplace_back(row.status());
      continue;
    }
    if (!load.ok()) {
      cells.emplace_back(load);
    } else if (error != scratch.row_errors().end() && error->row == k) {
      cells.emplace_back((error++)->status);
    } else {
      cells.emplace_back(Cell{values->GetValue(k),
                              time_idx >= 0 ? row->value(time_idx).time_value()
                                            : kMaxTimestamp});
    }
    ++k;
  }
  return cells;
}

/// One requested feature's column of a batch: a cell per entity, plus the
/// staleness annotation every entity's response carries.
struct FeatureColumn {
  std::string stale_note;
  Cells cells;
};

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
      metrics_(kMetricsStripes) {}

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

void FeatureServer::RecordLatency(double micros,
                                  uint64_t num_requests) const {
  MetricsStripe& stripe = metrics_[ThreadStripeSeed() % kMetricsStripes];
  std::lock_guard lock(stripe.mu);
  for (uint64_t i = 0; i < num_requests; ++i) stripe.latency_us.Record(micros);
  stripe.requests += num_requests;
}

std::vector<StatusOr<Row>> FeatureServer::FetchRows(
    const std::string& view, const std::vector<Value>& keys,
    Timestamp now) const {
  std::vector<StatusOr<Row>> rows = store_->MultiGet(view, keys, now);
  const uint32_t max_attempts = std::max<uint32_t>(1, options_.max_attempts);
  uint64_t retries = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    for (uint32_t attempt = 1; !rows[i].ok() &&
                               IsTransient(rows[i].status()) &&
                               attempt < max_attempts;
         ++attempt) {
      if (options_.initial_backoff_micros > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            options_.initial_backoff_micros << (attempt - 1)));
      }
      ++retries;
      rows[i] = store_->Get(view, keys[i], now);
    }
  }
  if (retries) retries_.fetch_add(retries, std::memory_order_relaxed);
  return rows;
}

StatusOr<FeatureVector> FeatureServer::GetFeatures(
    const Value& entity_key, const std::vector<std::string>& features,
    Timestamp now) const {
  return std::move(GetFeaturesBatch({entity_key}, features, now)[0]);
}

std::vector<StatusOr<FeatureVector>> FeatureServer::GetFeaturesBatch(
    const std::vector<Value>& entity_keys,
    const std::vector<std::string>& features, Timestamp now) const {
  const double start = NowMicros();
  const size_t n = entity_keys.size();
  std::vector<StatusOr<FeatureVector>> out;
  if (n == 0) return out;
  out.reserve(n);

  // Stage 1 — fetch: each requested feature becomes one column of cells
  // for the whole batch. Computed features share one mirror fetch per
  // source table.
  std::vector<FeatureColumn> columns(features.size());
  std::unordered_map<std::string, std::vector<StatusOr<Row>>> mirrors;
  for (size_t j = 0; j < features.size(); ++j) {
    const std::string& feature = features[j];
    FeatureColumn& column = columns[j];
    if (std::optional<ComputedFeature> comp = ResolveComputedFeature(feature)) {
      column.stale_note = StaleNoteArtifact(
          feature, FeatureArtifact(comp->reg.def.name, comp->reg.version));
      if (comp->program == nullptr) {  // Mirror view does not exist yet.
        column.cells.assign(
            n, Status::NotFound("no source rows ingested for '" +
                                comp->reg.def.source_table + "'"));
        continue;
      }
      auto [mirror, fresh] = mirrors.try_emplace(comp->mirror_view);
      if (fresh) {
        mirror->second = FetchRows(comp->mirror_view, entity_keys, now);
      }
      column.cells = ComputedCells(*comp->program,
                                   comp->reg.source_time_column,
                                   mirror->second);
    } else if (EmbeddingTablePtr table = ResolveEmbeddingFeature(feature)) {
      column.stale_note = StaleNote(feature, table);
      column.cells = EmbeddingCells(*table, entity_keys);
    } else {
      column.stale_note = StaleNote(feature, nullptr);
      column.cells = ViewCells(feature, FetchRows(feature, entity_keys, now));
    }
  }

  // Stage 2 — assemble one FeatureVector per entity from the columns.
  // Entities fail independently: kError fails only the entity whose
  // feature is unavailable.
  const bool any_failpoint = FailpointRegistry::Instance().AnyArmed();
  uint64_t degraded_features = 0, degraded_responses = 0;
  for (size_t i = 0; i < n; ++i) {
    if (any_failpoint) {
      // The per-request failpoint, one evaluation per entity.
      Status injected =
          FailpointRegistry::Instance().Evaluate("feature_server.get");
      if (!injected.ok()) {
        out.emplace_back(std::move(injected));
        continue;
      }
    }
    FeatureVector fv;
    fv.names = features;
    fv.values.reserve(features.size());
    for (const FeatureColumn& column : columns) {
      if (!column.stale_note.empty()) fv.stale.push_back(column.stale_note);
    }
    Status entity_error;
    for (size_t j = 0; j < features.size(); ++j) {
      StatusOr<Cell>& cell = columns[j].cells[i];
      if (cell.ok()) {
        // A NULL value (e.g. a computed NULL) is a value, not a miss.
        fv.values.push_back(std::move(cell->value));
        fv.oldest_event_time =
            std::min(fv.oldest_event_time, cell->event_time);
        continue;
      }
      Status why = cell.status();
      if (why.IsFailedPrecondition()) {
        entity_error = std::move(why);  // Not a feature view: no policy.
        break;
      }
      if (options_.missing_policy == MissingFeaturePolicy::kError) {
        entity_error = Status::NotFound("feature '" + features[j] +
                                        "' unavailable: " + why.message());
        break;
      }
      fv.values.push_back(Value::Null());
      ++fv.missing;
      // Retries exhausted on a transient error: degraded, not a miss.
      if (IsTransient(why)) ++fv.degraded;
    }
    if (!entity_error.ok()) {
      out.emplace_back(std::move(entity_error));
      continue;
    }
    if (fv.degraded > 0) {
      degraded_features += fv.degraded;
      ++degraded_responses;
    }
    out.emplace_back(std::move(fv));
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
