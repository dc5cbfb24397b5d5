#include "embedding/quality.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "common/rng.h"
#include "embedding/compress.h"
#include "embedding/embedding_drift.h"
#include "embedding/tier.h"

namespace mlfs {
namespace {

EmbeddingTablePtr RandomTable(const std::string& name, size_t n, size_t dim,
                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> keys;
  std::vector<float> data;
  keys.reserve(n);
  data.reserve(n * dim);
  for (size_t i = 0; i < n; ++i) {
    keys.push_back("e" + std::to_string(i));
    for (size_t j = 0; j < dim; ++j) {
      data.push_back(static_cast<float>(rng.Gaussian()));
    }
  }
  EmbeddingTableMetadata metadata;
  metadata.name = name;
  return EmbeddingTable::Create(metadata, keys, data, dim).value();
}

// Clustered table: key i belongs to cluster i % classes; vectors are the
// cluster center plus small noise.
EmbeddingTablePtr ClusteredTable(const std::string& name, size_t n,
                                 size_t dim, int classes, uint64_t seed,
                                 double noise = 0.2) {
  Rng rng(seed);
  std::vector<std::vector<float>> centers(classes, std::vector<float>(dim));
  Rng center_rng(999);  // Same centers across seeds.
  for (auto& c : centers) {
    for (auto& x : c) x = static_cast<float>(center_rng.Gaussian(0, 3));
  }
  std::vector<std::string> keys;
  std::vector<float> data;
  for (size_t i = 0; i < n; ++i) {
    keys.push_back("e" + std::to_string(i));
    const auto& c = centers[i % classes];
    for (size_t j = 0; j < dim; ++j) {
      data.push_back(c[j] + static_cast<float>(rng.Gaussian(0, noise)));
    }
  }
  EmbeddingTableMetadata metadata;
  metadata.name = name;
  return EmbeddingTable::Create(metadata, keys, data, dim).value();
}

TEST(NeighborStabilityTest, IdenticalTablesFullyStable) {
  auto table = RandomTable("a", 100, 8, 1);
  auto report = NeighborStability(*table, *table, 5).value();
  EXPECT_DOUBLE_EQ(report.mean_overlap, 1.0);
  EXPECT_DOUBLE_EQ(report.min_overlap, 1.0);
  EXPECT_EQ(report.keys_compared, 100u);
}

TEST(NeighborStabilityTest, IndependentTablesUnstable) {
  auto a = RandomTable("a", 200, 8, 1);
  auto b = RandomTable("a", 200, 8, 2);
  auto report = NeighborStability(*a, *b, 5).value();
  EXPECT_LT(report.mean_overlap, 0.3);
}

TEST(NeighborStabilityTest, SmallNoisePartiallyStable) {
  auto a = ClusteredTable("a", 200, 8, 5, 1, 0.1);
  auto b = ClusteredTable("a", 200, 8, 5, 2, 0.1);  // Same structure, new noise.
  auto random = RandomTable("a", 200, 8, 3);
  double structured = NeighborStability(*a, *b, 10).value().mean_overlap;
  double unstructured = NeighborStability(*a, *random, 10).value().mean_overlap;
  EXPECT_GT(structured, unstructured + 0.2);
}

TEST(NeighborStabilityTest, Validation) {
  auto a = RandomTable("a", 5, 4, 1);
  EXPECT_FALSE(NeighborStability(*a, *a, 0).ok());
  EXPECT_FALSE(NeighborStability(*a, *a, 10).ok());  // Too few keys.
  auto b = RandomTable("b", 5, 4, 2);  // Same keys though ("e0"... "e4").
  EXPECT_TRUE(NeighborStability(*a, *b, 2).ok());
}

TEST(EigenspaceOverlapTest, SelfOverlapIsOne) {
  auto table = RandomTable("a", 100, 8, 1);
  EXPECT_NEAR(EigenspaceOverlapScore(*table, *table).value(), 1.0, 1e-9);
}

TEST(EigenspaceOverlapTest, RotationPreservesOverlap) {
  // Rotate every vector by a fixed 2D rotation in dims (0,1): span changes
  // predictably; full-dim rotation of the *feature space* preserves span
  // only if applied to columns... here we apply an orthogonal map to the
  // feature axes, which preserves the column span dimension and EOS stays
  // high because the subspace spanned in R^n is unchanged.
  auto table = RandomTable("a", 120, 6, 2);
  // Column-mix: new_x = x * R with R orthogonal => span(columns) in R^n
  // unchanged.
  const double theta = 0.7;
  std::vector<float> rotated = table->raw();
  for (size_t i = 0; i < table->size(); ++i) {
    float* row = rotated.data() + i * table->dim();
    float x0 = row[0], x1 = row[1];
    row[0] = static_cast<float>(std::cos(theta) * x0 -
                                std::sin(theta) * x1);
    row[1] = static_cast<float>(std::sin(theta) * x0 +
                                std::cos(theta) * x1);
  }
  EmbeddingTableMetadata metadata;
  metadata.name = "rotated";
  auto rotated_table =
      table->WithVectors(metadata, std::move(rotated), table->dim()).value();
  EXPECT_NEAR(EigenspaceOverlapScore(*table, *rotated_table).value(), 1.0,
              1e-6);
}

TEST(EigenspaceOverlapTest, IndependentSubspacesLowOverlap) {
  // Table A varies only in dims 0-2; table B only in dims 3-5.
  auto make = [](const std::string& name, size_t offset, uint64_t seed) {
    Rng rng(seed);
    std::vector<std::string> keys;
    std::vector<float> data;
    for (size_t i = 0; i < 100; ++i) {
      keys.push_back("e" + std::to_string(i));
      std::vector<float> v(6, 0.0f);
      for (size_t j = 0; j < 3; ++j) {
        v[offset + j] = static_cast<float>(rng.Gaussian());
      }
      data.insert(data.end(), v.begin(), v.end());
    }
    EmbeddingTableMetadata metadata;
    metadata.name = name;
    return EmbeddingTable::Create(metadata, keys, data, 6).value();
  };
  auto a = make("a", 0, 1);
  auto b = make("b", 3, 2);
  EXPECT_LT(EigenspaceOverlapScore(*a, *b).value(), 0.05);
}

TEST(EigenspaceOverlapTest, DecreasesWithCompressionSeverity) {
  auto table = RandomTable("a", 300, 16, 4);
  double last = 1.1;
  for (int bits : {8, 2, 1}) {
    auto compressed = QuantizeUniform(*table, bits).value();
    double eos = EigenspaceOverlapScore(*table, *compressed).value();
    EXPECT_LT(eos, last + 1e-9) << bits;
    EXPECT_GT(eos, 0.0);
    last = eos;
  }
}

// A tiered table's Get pointer lives only until the thread's next tiered
// read, so both scores must read resident forms. Over tiered tables with
// no hot budget (every read decodes into a buffer the next read reuses)
// they equal the scores over the tables' Materialize() copies; the tables
// are unrelated, so a score built from freed, reused rows reads too high.
TEST(TieredQualityTest, ScoresEqualTheMaterializedCopies) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "mlfs_quality_tier")
          .string();
  std::filesystem::create_directories(dir);
  EmbeddingTierOptions options;  // memory_budget_bytes = 0: nothing hot.
  options.bits = 8;
  options.dir = dir;
  auto a = EmbeddingTable::CreateTiered(*RandomTable("a", 400, 16, 7), options)
               .value();
  auto b = EmbeddingTable::CreateTiered(*RandomTable("b", 400, 16, 8), options)
               .value();
  auto ra = a->Materialize().value();
  auto rb = b->Materialize().value();

  const NeighborStabilityReport want = NeighborStability(*ra, *rb).value();
  EXPECT_LT(want.mean_overlap, 0.1);
  for (const auto& [x, y] : {std::pair{a, b}, std::pair{a, rb},
                             std::pair{ra, b}}) {
    const NeighborStabilityReport got = NeighborStability(*x, *y).value();
    EXPECT_EQ(got.mean_overlap, want.mean_overlap);
    EXPECT_EQ(got.min_overlap, want.min_overlap);
    EXPECT_EQ(got.keys_compared, want.keys_compared);
  }
  const double eos = EigenspaceOverlapScore(*ra, *rb).value();
  EXPECT_LT(eos, 0.1);
  EXPECT_EQ(EigenspaceOverlapScore(*a, *b).value(), eos);
  EXPECT_EQ(EigenspaceOverlapScore(*a, *rb).value(), eos);
  a.reset();
  b.reset();
  std::filesystem::remove_all(dir);
}

DownstreamTask ClusterLabelTask(size_t n, int classes) {
  DownstreamTask task;
  for (size_t i = 0; i < n; ++i) {
    task.keys.push_back("e" + std::to_string(i));
    task.labels.push_back(static_cast<int>(i) % classes);
  }
  return task;
}

TEST(DownstreamInstabilityTest, IdenticalEmbeddingsZeroChurn) {
  auto table = ClusteredTable("a", 300, 8, 3, 1);
  auto task = ClusterLabelTask(300, 3);
  auto report = DownstreamInstability(*table, *table, task).value();
  EXPECT_DOUBLE_EQ(report.prediction_churn, 0.0);
  EXPECT_GT(report.accuracy_a, 0.9);
}

TEST(DownstreamInstabilityTest, RetrainedEmbeddingsChurnButStayAccurate) {
  auto a = ClusteredTable("a", 400, 8, 3, 1);
  auto b = ClusteredTable("a", 400, 8, 3, 2);  // "Retrained" (new noise).
  auto task = ClusterLabelTask(400, 3);
  auto report = DownstreamInstability(*a, *b, task).value();
  EXPECT_GT(report.accuracy_a, 0.9);
  EXPECT_GT(report.accuracy_b, 0.9);
  // Some churn, but bounded: most predictions agree.
  EXPECT_LT(report.prediction_churn, 0.2);
}

TEST(DownstreamInstabilityTest, UnrelatedEmbeddingsHighChurn) {
  auto a = ClusteredTable("a", 300, 8, 3, 1);
  auto b = RandomTable("a", 300, 8, 9);  // Structure destroyed.
  auto task = ClusterLabelTask(300, 3);
  auto report = DownstreamInstability(*a, *b, task).value();
  EXPECT_GT(report.prediction_churn, 0.2);
  EXPECT_GT(report.accuracy_a, report.accuracy_b);
}

TEST(MaterializeTaskTest, SkipsMissingKeys) {
  auto table = RandomTable("a", 10, 4, 1);
  DownstreamTask task;
  task.keys = {"e1", "missing", "e2"};
  task.labels = {0, 1, 1};
  auto data = MaterializeTask(task, *table).value();
  EXPECT_EQ(data.size(), 2u);
  task.keys = {"missing"};
  task.labels = {0};
  EXPECT_FALSE(MaterializeTask(task, *table).ok());
  task.labels = {0, 1};
  EXPECT_FALSE(MaterializeTask(task, *table).ok());  // Misaligned.
}

TEST(EmbeddingDriftTest, SelfIsStable) {
  auto table = ClusteredTable("a", 200, 8, 4, 1);
  auto report = CheckEmbeddingDrift(*table, *table).value();
  EXPECT_FALSE(report.drifted) << report.ToString();
  EXPECT_EQ(report.null_or_nan_cells, 0u);
  EXPECT_NEAR(report.mean_self_cosine, 1.0, 1e-6);
  EXPECT_NEAR(report.centroid_cosine, 1.0, 1e-6);
}

TEST(EmbeddingDriftTest, TabularMetricsMissRotationButChurnCatchesIt) {
  // Apply a random orthogonal-ish shuffle of dimensions + sign flips: every
  // per-cell statistic (norms!) is identical, but dot products between a
  // *fixed consumer* and the vectors change. Self-cosine catches it.
  auto table = ClusteredTable("a", 200, 8, 4, 1);
  std::vector<float> shuffled = table->raw();
  const size_t d = table->dim();
  for (size_t i = 0; i < table->size(); ++i) {
    float* row = shuffled.data() + i * d;
    std::reverse(row, row + d);      // Permute dims.
    for (size_t j = 0; j < d; j += 2) row[j] = -row[j];  // Sign flips.
  }
  EmbeddingTableMetadata metadata;
  metadata.name = "rotated";
  auto rotated = table->WithVectors(metadata, std::move(shuffled), d).value();

  auto report = CheckEmbeddingDrift(*table, *rotated).value();
  // Tabular-style signals are blind: no NaNs, norm distribution unchanged.
  EXPECT_EQ(report.null_or_nan_cells, 0u);
  EXPECT_LT(report.norm_psi, 0.05);
  // Embedding-native signal fires.
  EXPECT_LT(report.mean_self_cosine, 0.5);
  EXPECT_TRUE(report.drifted) << report.ToString();
}

TEST(EmbeddingDriftTest, NanCellsAreCaught) {
  auto table = ClusteredTable("a", 50, 4, 2, 1);
  std::vector<float> broken = table->raw();
  broken[5] = std::nanf("");
  EmbeddingTableMetadata metadata;
  metadata.name = "broken";
  auto bad = table->WithVectors(metadata, std::move(broken), 4).value();
  auto report = CheckEmbeddingDrift(*table, *bad).value();
  EXPECT_EQ(report.null_or_nan_cells, 1u);
  EXPECT_TRUE(report.drifted);
}

}  // namespace
}  // namespace mlfs
