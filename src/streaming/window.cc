#include "streaming/window.h"

#include <algorithm>

#include "storage/entity_key.h"

namespace mlfs {

WindowedAggregator::WindowedAggregator(
    SchemaPtr schema, int entity_idx, int time_idx, WindowSpec window,
    std::vector<WindowAggSpec> aggs,
    std::vector<std::unique_ptr<CompiledExpr>> inputs,
    Timestamp allowed_lateness)
    : schema_(std::move(schema)),
      entity_idx_(entity_idx),
      time_idx_(time_idx),
      window_(window),
      aggs_(std::move(aggs)),
      inputs_(std::move(inputs)),
      scratch_(inputs_.size()),
      event_inputs_(aggs_.size()),
      allowed_lateness_(allowed_lateness) {}

StatusOr<std::unique_ptr<WindowedAggregator>> WindowedAggregator::Create(
    SchemaPtr event_schema, std::string entity_column,
    std::string time_column, WindowSpec window,
    std::vector<WindowAggSpec> aggs, Timestamp allowed_lateness) {
  if (event_schema == nullptr) {
    return Status::InvalidArgument("windowed aggregator needs a schema");
  }
  if (window.width <= 0 || window.slide <= 0 || window.slide > window.width) {
    return Status::InvalidArgument(
        "window needs 0 < slide <= width");
  }
  if (window.width % window.slide != 0) {
    return Status::InvalidArgument("window width must be a multiple of slide");
  }
  if (allowed_lateness < 0) {
    return Status::InvalidArgument("allowed_lateness must be >= 0");
  }
  if (aggs.empty()) {
    return Status::InvalidArgument("need at least one aggregation");
  }
  int eidx = event_schema->FieldIndex(entity_column);
  if (eidx < 0 || (event_schema->field(eidx).type != FeatureType::kInt64 &&
                   event_schema->field(eidx).type != FeatureType::kString)) {
    return Status::InvalidArgument("entity column '" + entity_column +
                                   "' missing or not INT64/STRING");
  }
  int tidx = event_schema->FieldIndex(time_column);
  if (tidx < 0 ||
      event_schema->field(tidx).type != FeatureType::kTimestamp) {
    return Status::InvalidArgument("time column '" + time_column +
                                   "' missing or not TIMESTAMP");
  }
  std::vector<std::unique_ptr<CompiledExpr>> inputs;
  inputs.reserve(aggs.size());
  for (const auto& spec : aggs) {
    if (spec.output_feature.empty()) {
      return Status::InvalidArgument("aggregation needs an output name");
    }
    if (spec.input.empty()) {
      if (spec.fn != AggregateFn::kCount) {
        return Status::InvalidArgument(
            "empty input is only valid for count()");
      }
      inputs.push_back(nullptr);
      continue;
    }
    MLFS_ASSIGN_OR_RETURN(CompiledExpr compiled,
                          CompiledExpr::Compile(spec.input, event_schema));
    bool needs_numeric = spec.fn != AggregateFn::kCount &&
                         spec.fn != AggregateFn::kCountDistinct;
    if (needs_numeric && !IsNumeric(compiled.output_type()) &&
        compiled.output_type() != FeatureType::kNull) {
      return Status::InvalidArgument(
          "aggregation '" + spec.output_feature + "': input type " +
          std::string(FeatureTypeToString(compiled.output_type())) +
          " is not numeric");
    }
    inputs.push_back(std::make_unique<CompiledExpr>(std::move(compiled)));
  }
  return std::unique_ptr<WindowedAggregator>(new WindowedAggregator(
      std::move(event_schema), eidx, tidx, window, std::move(aggs),
      std::move(inputs), allowed_lateness));
}

Timestamp WindowedAggregator::FirstWindowStartFor(Timestamp t) const {
  // Earliest window [start, start+width) containing t, with start on the
  // slide grid (floor semantics for negative times).
  Timestamp earliest = t - window_.width + 1;
  Timestamp q = earliest / window_.slide;
  if (earliest % window_.slide != 0 && earliest < 0) --q;
  Timestamp start = q * window_.slide;
  if (start + window_.width <= t) start += window_.slide;
  return start;
}

Status WindowedAggregator::ProcessEvent(const Row& event) {
  if (event.schema() == nullptr || !(*event.schema() == *schema_)) {
    return Status::InvalidArgument("event schema mismatch");
  }
  const Value& tv = event.value(time_idx_);
  if (tv.is_null()) return Status::InvalidArgument("event time is null");
  Timestamp t = tv.time_value();
  if (watermark_ != kMinTimestamp && t < watermark_) {
    ++dropped_late_;
    return Status::OK();
  }
  MLFS_ASSIGN_OR_RETURN(std::string key,
                        EntityKeyToString(event.value(entity_idx_)));
  // Inputs evaluate once, before any window state changes, so an event
  // whose input fails leaves the aggregator untouched.
  for (size_t i = 0; i < aggs_.size(); ++i) {
    if (inputs_[i] == nullptr) {
      event_inputs_[i] = Value::Bool(true);  // Count the event.
      continue;
    }
    MLFS_ASSIGN_OR_RETURN(event_inputs_[i],
                          inputs_[i]->Eval(event, &scratch_[i]));
  }

  for (Timestamp start = FirstWindowStartFor(t); start <= t;
       start += window_.slide) {
    EntityState& state = [&]() -> EntityState& {
      auto& by_entity = open_[start];
      auto it = by_entity.find(key);
      if (it != by_entity.end()) return it->second;
      EntityState fresh;
      fresh.aggs.reserve(aggs_.size());
      for (const auto& spec : aggs_) fresh.aggs.push_back(MakeAggregator(spec.fn));
      return by_entity.emplace(key, std::move(fresh)).first->second;
    }();
    for (size_t i = 0; i < aggs_.size(); ++i) {
      state.aggs[i]->Add(event_inputs_[i]);
    }
  }

  max_event_time_ = std::max(max_event_time_, t);
  Timestamp new_watermark = max_event_time_ - allowed_lateness_;
  if (new_watermark > watermark_) {
    watermark_ = new_watermark;
    MaybeFinalize();
  }
  return Status::OK();
}

void WindowedAggregator::MaybeFinalize() {
  // Finalize windows whose end <= watermark. `open_` is ordered by start.
  while (!open_.empty()) {
    auto it = open_.begin();
    Timestamp end = it->first + window_.width;
    if (end > watermark_) break;
    std::vector<std::string> keys;
    keys.reserve(it->second.size());
    for (const auto& [key, state] : it->second) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    for (const auto& key : keys) {
      EntityState& state = it->second[key];
      WindowResult result;
      result.entity_key = key;
      result.window_start = it->first;
      result.window_end = end;
      result.values.reserve(state.aggs.size());
      for (const auto& agg : state.aggs) result.values.push_back(agg->Result());
      ready_.push_back(std::move(result));
    }
    open_.erase(it);
  }
}

std::vector<WindowResult> WindowedAggregator::PollResults() {
  std::vector<WindowResult> out;
  out.swap(ready_);
  return out;
}

void WindowedAggregator::AdvanceWatermarkTo(Timestamp t) {
  if (t <= watermark_) return;
  watermark_ = t;
  MaybeFinalize();
}

size_t WindowedAggregator::open_states() const {
  size_t n = 0;
  for (const auto& [start, by_entity] : open_) n += by_entity.size();
  return n;
}

}  // namespace mlfs
