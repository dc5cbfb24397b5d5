// Quickstart: the end-to-end tabular feature-store workflow.
//
//   1. Register a raw source table and ingest events.
//   2. Author + publish a feature definition (validated at publish time).
//   3. Let the orchestrator materialize it into the online store.
//   4. Serve feature vectors at low latency.
//   5. Build a leakage-free point-in-time training set and train a model.
//   6. Register the model with pinned feature versions.
//
// Run: ./example_quickstart

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "core/feature_store.h"
#include "ml/linear_model.h"
#include "ml/metrics.h"

using namespace mlfs;

int main() {
  FeatureStore store;

  // --- 1. Source table ------------------------------------------------------
  auto schema = Schema::Create({{"user_id", FeatureType::kInt64, false},
                                {"event_time", FeatureType::kTimestamp, false},
                                {"trips_7d", FeatureType::kInt64, true},
                                {"trips_30d", FeatureType::kInt64, true},
                                {"avg_rating", FeatureType::kDouble, true}})
                    .value();
  OfflineTableOptions table;
  table.name = "user_activity";
  table.schema = schema;
  table.entity_column = "user_id";
  table.time_column = "event_time";
  MLFS_CHECK_OK(store.CreateSourceTable(table));

  Rng rng(42);
  std::vector<Row> events;
  for (int64_t user = 0; user < 200; ++user) {
    for (Timestamp t = Hours(1); t < Days(3); t += Hours(6)) {
      int64_t trips7 = static_cast<int64_t>(rng.Uniform(20));
      events.push_back(
          Row::Create(schema, {Value::Int64(user), Value::Time(t),
                               Value::Int64(trips7),
                               Value::Int64(trips7 + rng.Uniform(40)),
                               Value::Double(rng.UniformDouble(3.0, 5.0))})
              .value());
    }
  }
  MLFS_CHECK_OK(store.Ingest("user_activity", events));
  std::printf("ingested %zu events; logical clock now %s\n", events.size(),
              FormatTimestamp(store.clock().now()).c_str());

  // --- 2. Publish features --------------------------------------------------
  FeatureDefinition rate;
  rate.name = "user_trip_rate";
  rate.entity = "user";
  rate.source_table = "user_activity";
  rate.expression = "trips_7d / (trips_30d + 1)";
  rate.cadence = Hours(6);
  rate.description = "Share of the 30d trips taken in the last 7d";
  int version = store.PublishFeature(rate).value();
  std::printf("published %s@v%d (output type %s, reads %zu columns)\n",
              rate.name.c_str(), version,
              std::string(FeatureTypeToString(
                  store.registry().Get(rate.name)->output_type)).c_str(),
              store.registry().Get(rate.name)->input_columns.size());

  FeatureDefinition rating;
  rating.name = "user_rating";
  rating.entity = "user";
  rating.source_table = "user_activity";
  rating.expression = "coalesce(avg_rating, 4.0)";
  rating.cadence = Hours(12);
  MLFS_CHECK_OK(store.PublishFeature(rating).status());

  // --- 3. Materialize -------------------------------------------------------
  int refreshed = store.RunMaterialization().value();
  std::printf("orchestrator refreshed %d features\n", refreshed);

  // --- 4. Serve -------------------------------------------------------------
  auto fv = store.ServeFeatures(Value::Int64(7),
                                {"user_trip_rate", "user_rating"})
                .value();
  std::printf("user 7: trip_rate=%.3f rating=%.2f (oldest input %s old)\n",
              fv.values[0].double_value(), fv.values[1].double_value(),
              FormatTimestamp(store.clock().now() - fv.oldest_event_time)
                  .c_str());

  // --- 5. Training set via point-in-time join --------------------------------
  auto spine_schema =
      Schema::Create({{"user_id", FeatureType::kInt64, false},
                      {"ts", FeatureType::kTimestamp, false},
                      {"churned", FeatureType::kInt64, false}})
          .value();
  std::vector<Row> spine;
  Rng label_rng(7);
  // Label observations are stamped "now": the join may only use feature
  // values that existed at that moment (all of them, here).
  const Timestamp label_time = store.clock().now();
  for (int64_t user = 0; user < 200; ++user) {
    spine.push_back(
        Row::Create(spine_schema,
                    {Value::Int64(user), Value::Time(label_time),
                     Value::Int64(label_rng.Bernoulli(0.3) ? 1 : 0)})
            .value());
  }
  TrainingSet training =
      store.BuildTrainingSet(spine, "user_id", "ts",
                             {"user_trip_rate", "user_rating"})
          .value();
  std::printf("training set: %zu rows, %zu columns, %llu missing cells\n",
              training.rows.size(), training.schema->num_fields(),
              static_cast<unsigned long long>(training.missing_cells));

  Dataset dataset;
  for (const Row& row : training.rows) {
    auto rate_value = row.ValueByName("user_trip_rate").value();
    auto rating_value = row.ValueByName("user_rating").value();
    if (rate_value.is_null() || rating_value.is_null()) continue;
    dataset.Add({static_cast<float>(rate_value.double_value()),
                 static_cast<float>(rating_value.double_value())},
                static_cast<int>(
                    row.ValueByName("churned").value().int64_value()));
  }
  SoftmaxClassifier model;
  double loss = model.Fit(dataset).value();
  auto preds = model.PredictBatch(dataset).value();
  double accuracy = Accuracy(dataset.labels, preds).value();
  std::printf("trained churn model: loss=%.3f accuracy=%.3f\n", loss,
              accuracy);

  // --- 6. Register the model with provenance --------------------------------
  ModelRecord record;
  record.name = "churn_model";
  record.task = "churn-classification";
  record.feature_refs = {"user_trip_rate@v1", "user_rating@v1"};
  record.metrics["train_accuracy"] = accuracy;
  record.weights = model.weights();
  int model_version = store.RegisterModel(record).value();
  std::printf("registered churn_model@v%d (checksum %llx)\n", model_version,
              static_cast<unsigned long long>(
                  store.models().Get("churn_model")->weights_checksum));

  // --- 7. Durability: checkpoint the whole store and reload it --------------
  const std::string checkpoint_dir =
      (std::filesystem::temp_directory_path() /
       ("mlfs_quickstart_" + std::to_string(::getpid())))
          .string();
  MLFS_CHECK_OK(store.Checkpoint(checkpoint_dir));
  FeatureStore reloaded;
  MLFS_CHECK_OK(reloaded.RestoreCheckpoint(checkpoint_dir));
  auto fv_again = reloaded.ServeFeatures(Value::Int64(7),
                                         {"user_trip_rate", "user_rating"})
                      .value();
  std::printf("checkpoint/restore: user 7 still serves trip_rate=%.3f "
              "(models=%zu, features=%zu)\n",
              fv_again.values[0].double_value(),
              reloaded.models().num_models(),
              reloaded.registry().num_features());
  std::filesystem::remove_all(checkpoint_dir);

  std::printf("quickstart complete; %zu alerts emitted\n",
              store.alerts().size());
  return 0;
}
