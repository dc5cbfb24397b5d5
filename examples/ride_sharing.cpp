// Ride-sharing scenario (the Michelangelo-style workload that motivated the
// first industrial feature store): streaming trip events are aggregated
// into windowed features, served online, and monitored for drift — a
// simulated "holiday" shifts fares and the store's drift monitor fires.
//
// Run: ./example_ride_sharing

#include <cstdio>

#include "core/feature_store.h"
#include "datagen/tabular.h"
#include "quality/skew.h"

using namespace mlfs;

int main() {
  FeatureStore store;

  // --- Streaming feature view over trip events -------------------------------
  auto event_schema =
      Schema::Create({{"driver_id", FeatureType::kInt64, false},
                      {"ts", FeatureType::kTimestamp, false},
                      {"fare", FeatureType::kDouble, true},
                      {"minutes", FeatureType::kDouble, true}})
          .value();

  StreamPipelineOptions pipeline_options;
  pipeline_options.name = "driver_stats_1h";
  pipeline_options.event_schema = event_schema;
  pipeline_options.entity_column = "driver_id";
  pipeline_options.time_column = "ts";
  pipeline_options.window = {Hours(1), Hours(1)};
  pipeline_options.aggs = {
      {"trips", AggregateFn::kCount, ""},
      {"fare_total", AggregateFn::kSum, "fare"},
      {"fare_p90", AggregateFn::kP90, "fare"},
      {"fare_per_minute", AggregateFn::kMean, "fare / (minutes + 1)"}};
  pipeline_options.allowed_lateness = Minutes(10);
  StreamPipeline* pipeline =
      store.CreateStreamPipeline(pipeline_options).value();

  // --- Simulate two days of trips; day 2 is a "holiday" (fares 2x) ----------
  Rng rng(11);
  ZipfDistribution driver_popularity(100, 0.9);
  auto make_trip = [&](Timestamp t, double fare_scale) {
    int64_t driver = static_cast<int64_t>(driver_popularity.Sample(&rng));
    double minutes = rng.UniformDouble(5, 40);
    double fare = fare_scale * (2.5 + 1.1 * minutes + rng.Gaussian(0, 2));
    return Row::Create(event_schema,
                       {Value::Int64(driver), Value::Time(t),
                        Value::Double(fare), Value::Double(minutes)})
        .value();
  };
  size_t trips = 0;
  for (Timestamp t = 0; t < Days(2); t += Seconds(45)) {
    double scale = (t >= Days(1)) ? 2.0 : 1.0;  // Holiday surge on day 2.
    MLFS_CHECK_OK(pipeline->Ingest(make_trip(t, scale)));
    ++trips;
  }
  MLFS_CHECK_OK(pipeline->Flush(Days(2)));
  store.clock().AdvanceTo(Days(2));
  std::printf("ingested %zu trips -> %llu hourly feature rows (%llu late)\n",
              trips,
              static_cast<unsigned long long>(pipeline->rows_emitted()),
              static_cast<unsigned long long>(pipeline->dropped_late()));

  // --- Serve current driver features ----------------------------------------
  auto row = store.online()
                 .Get("driver_stats_1h", Value::Int64(0), store.clock().now())
                 .value();
  std::printf("driver 0 latest window: trips=%lld fare_total=%.1f "
              "fare_p90=%.1f fare/min=%.2f\n",
              static_cast<long long>(
                  row.ValueByName("trips").value().int64_value()),
              row.ValueByName("fare_total").value().double_value(),
              row.ValueByName("fare_p90").value().double_value(),
              row.ValueByName("fare_per_minute").value().double_value());

  // --- Monitoring: the holiday shows up as training/serving skew ------------
  auto log = store.offline().GetTable("driver_stats_1h").value();
  std::vector<Row> day1 = log->Scan({0, Days(1)}).value();
  std::vector<Row> day2 = log->Scan({Days(1), Days(2)}).value();
  auto skew = ComputeSkew(day1, day2, "fare_total").value();
  std::printf("fare_total day1 vs day2: %s\n", skew.ToString().c_str());
  if (skew.skewed) {
    store.alerts().Emit({store.clock().now(), "skew:driver_stats_1h",
                         AlertSeverity::kWarning, skew.ToString()});
  }
  // A feature that should NOT drift: fare per minute is scale-invariant in
  // trips, but the holiday scales fares, so it drifts too — whereas trip
  // *counts* stay stable.
  auto count_skew = ComputeSkew(day1, day2, "trips").value();
  std::printf("trips    day1 vs day2: %s\n", count_skew.ToString().c_str());

  std::printf("alerts: %zu (>= warning: %zu)\n", store.alerts().size(),
              store.alerts().CountAtLeast(AlertSeverity::kWarning));
  for (const Alert& alert : store.alerts().All()) {
    std::printf("  %s\n", alert.ToString().c_str());
  }
  return 0;
}
