// Randomized property test: a random interleaving of feature publishes,
// embedding registrations, model registrations, deprecations, and drift
// events across all four lineage-recording components survives a 4-way
// snapshot/restore (LineageGraph + FeatureRegistry + EmbeddingStore +
// ModelRegistry) with every graph-derived answer intact. All randomness
// flows through fixed-seed Rng so failures reproduce exactly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "embedding/embedding_store.h"
#include "lineage/lineage_graph.h"
#include "modelstore/model_registry.h"
#include "registry/registry.h"
#include "storage/offline_store.h"

namespace mlfs {
namespace {

const char* kFeatureNames[] = {"f_a", "f_b", "f_c"};
const char* kEmbeddingNames[] = {"emb_x", "emb_y"};
const char* kModelNames[] = {"m_rank", "m_fraud", "m_eta"};

/// One shared graph plus the three silos that record into it.
struct World {
  OfflineStore offline;
  LineageGraph graph;
  FeatureRegistry registry{&offline, &graph};
  EmbeddingStore embeddings{&graph};
  ModelRegistry models{&graph};

  World() {
    OfflineTableOptions options;
    options.name = "src";
    options.schema = Schema::Create({{"e", FeatureType::kInt64, false},
                                     {"t", FeatureType::kTimestamp, false},
                                     {"a", FeatureType::kDouble, true},
                                     {"b", FeatureType::kDouble, true}})
                         .value();
    options.entity_column = "e";
    options.time_column = "t";
    MLFS_CHECK_OK(offline.CreateTable(options));
  }
};

EmbeddingTablePtr RandomTable(Rng* rng, const std::string& name,
                              const std::string& parent) {
  EmbeddingTableMetadata metadata;
  metadata.name = name;
  metadata.parent = parent;
  if (rng->Bernoulli(0.3)) metadata.training_source = "corpus";
  std::vector<float> vectors = {static_cast<float>(rng->Gaussian()),
                                static_cast<float>(rng->Gaussian()),
                                static_cast<float>(rng->Gaussian()),
                                static_cast<float>(rng->Gaussian())};
  return EmbeddingTable::Create(metadata, {"k1", "k2"}, vectors, 2).value();
}

/// Applies `steps` random mutations; every op must succeed or be a
/// well-understood precondition failure (nothing published yet, ...).
void RandomMutations(World* world, Rng* rng, int steps) {
  Timestamp t = 0;
  for (int i = 0; i < steps; ++i) {
    t += Minutes(1);
    switch (rng->Uniform(6)) {
      case 0: {  // Publish a feature version.
        FeatureDefinition def;
        def.name = kFeatureNames[rng->Uniform(3)];
        def.entity = "user";
        def.source_table = "src";
        def.expression = rng->Bernoulli(0.5) ? "a * 2" : "a + b";
        def.cadence = Hours(1);
        ASSERT_TRUE(world->registry.Publish(def, t).ok());
        break;
      }
      case 1: {  // Register an embedding version (sometimes chained).
        const std::string name = kEmbeddingNames[rng->Uniform(2)];
        std::string parent;
        if (rng->Bernoulli(0.5) && world->embeddings.GetLatest(name).ok()) {
          parent = name;  // Unpinned ref, resolved to latest at register.
        }
        ASSERT_TRUE(world->embeddings
                        .Register(RandomTable(rng, name, parent), t).ok());
        break;
      }
      case 2: {  // Register a model pinning random refs.
        ModelRecord record;
        record.name = kModelNames[rng->Uniform(3)];
        record.task = "prop";
        int fv = 1 + static_cast<int>(rng->Uniform(3));
        record.feature_refs = {std::string(kFeatureNames[rng->Uniform(3)]) +
                               "@v" + std::to_string(fv)};
        std::string emb = kEmbeddingNames[rng->Uniform(2)];
        if (rng->Bernoulli(0.2)) {
          record.embedding_refs = {emb};  // Unpinned (dangling finding).
        } else {
          int ev = 1 + static_cast<int>(rng->Uniform(3));
          record.embedding_refs = {emb + "@v" + std::to_string(ev)};
        }
        ASSERT_TRUE(world->models.Register(std::move(record), t).ok());
        break;
      }
      case 3: {  // Deprecate a feature (if it exists).
        Status s = world->registry.Deprecate(kFeatureNames[rng->Uniform(3)],
                                             t);
        ASSERT_TRUE(s.ok() || s.IsNotFound()) << s;
        break;
      }
      case 4: {  // Deprecate an embedding (if it exists).
        Status s = world->embeddings.Deprecate(kEmbeddingNames[rng->Uniform(2)],
                                               t);
        ASSERT_TRUE(s.ok() || s.IsNotFound()) << s;
        break;
      }
      case 5: {  // A drift monitor fires on a random known version.
        auto versions = world->graph.VersionsOf(
            ArtifactKind::kEmbedding, kEmbeddingNames[rng->Uniform(2)]);
        if (!versions.empty()) {
          size_t pick = rng->Uniform(versions.size());
          ASSERT_TRUE(world->graph
                          .MarkStale(versions[pick], StalenessReason::kDrift,
                                     t, "psi high")
                          .ok());
        }
        break;
      }
    }
  }
}

/// Every artifact in the graph, via VersionsOf over the known name pools
/// plus the unversioned table/column/view nodes reachable from them.
std::vector<ArtifactId> SampleArtifacts(const LineageGraph& graph) {
  std::vector<ArtifactId> out;
  for (const char* name : kFeatureNames) {
    auto v = graph.VersionsOf(ArtifactKind::kFeature, name);
    out.insert(out.end(), v.begin(), v.end());
  }
  for (const char* name : kEmbeddingNames) {
    auto v = graph.VersionsOf(ArtifactKind::kEmbedding, name);
    out.insert(out.end(), v.begin(), v.end());
  }
  for (const char* name : kModelNames) {
    auto v = graph.VersionsOf(ArtifactKind::kModel, name);
    out.insert(out.end(), v.begin(), v.end());
  }
  out.push_back(TableArtifact("src"));
  out.push_back(ColumnArtifact("src", "a"));
  out.push_back(ColumnArtifact("src", "b"));
  return out;
}

void ExpectWorldsEqual(const World& original, const World& restored) {
  // Graph-level structure.
  EXPECT_EQ(restored.graph.num_artifacts(), original.graph.num_artifacts());
  EXPECT_EQ(restored.graph.num_edges(), original.graph.num_edges());
  // Silo restores re-record lineage idempotently: no duplicate events.
  ASSERT_EQ(restored.graph.num_events(), original.graph.num_events());
  auto original_events = original.graph.Events();
  auto restored_events = restored.graph.Events();
  for (size_t i = 0; i < original_events.size(); ++i) {
    EXPECT_EQ(restored_events[i].source, original_events[i].source);
    EXPECT_EQ(restored_events[i].reason, original_events[i].reason);
    EXPECT_EQ(restored_events[i].at, original_events[i].at);
    EXPECT_EQ(restored_events[i].impacted, original_events[i].impacted);
  }

  // Every graph-derived answer agrees on every artifact we can name.
  for (const ArtifactId& id : SampleArtifacts(original.graph)) {
    SCOPED_TRACE(id.ToString());
    EXPECT_EQ(restored.graph.HasArtifact(id), original.graph.HasArtifact(id));
    EXPECT_EQ(restored.graph.UpstreamClosure(id),
              original.graph.UpstreamClosure(id));
    EXPECT_EQ(restored.graph.ImpactSet(id), original.graph.ImpactSet(id));
    auto original_info = original.graph.StalenessOf(id);
    auto restored_info = restored.graph.StalenessOf(id);
    ASSERT_EQ(restored_info.has_value(), original_info.has_value());
    if (original_info.has_value()) {
      EXPECT_EQ(restored_info->ToString(), original_info->ToString());
      EXPECT_EQ(restored_info->at, original_info->at);
    }
  }

  // Cross-silo queries that read the graph.
  for (const char* column : {"a", "b"}) {
    EXPECT_EQ(restored.registry.FeaturesReadingColumn("src", column),
              original.registry.FeaturesReadingColumn("src", column));
  }
  for (const char* name : kEmbeddingNames) {
    if (original.embeddings.GetLatest(name).ok()) {
      EXPECT_EQ(restored.embeddings.Lineage(name).value(),
                original.embeddings.Lineage(name).value());
    }
    EXPECT_EQ(restored.models.ConsumersOfEmbedding(name),
              original.models.ConsumersOfEmbedding(name));
  }
  auto original_skew = original.models.CheckEmbeddingSkew(original.embeddings)
                           .value();
  auto restored_skew = restored.models.CheckEmbeddingSkew(restored.embeddings)
                           .value();
  ASSERT_EQ(restored_skew.skews.size(), original_skew.skews.size());
  for (size_t i = 0; i < original_skew.skews.size(); ++i) {
    EXPECT_EQ(restored_skew.skews[i].model, original_skew.skews[i].model);
    EXPECT_EQ(restored_skew.skews[i].embedding,
              original_skew.skews[i].embedding);
    EXPECT_EQ(restored_skew.skews[i].pinned_version,
              original_skew.skews[i].pinned_version);
  }
  ASSERT_EQ(restored_skew.dangling.size(), original_skew.dangling.size());
  for (size_t i = 0; i < original_skew.dangling.size(); ++i) {
    EXPECT_EQ(restored_skew.dangling[i].model,
              original_skew.dangling[i].model);
    EXPECT_EQ(restored_skew.dangling[i].ref, original_skew.dangling[i].ref);
  }
}

TEST(LineagePropertyTest, FourWaySnapshotRestoreRoundTrip) {
  for (uint64_t seed : {1ULL, 0xfeedULL, 0xdecafbadULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    World original;
    RandomMutations(&original, &rng, 120);
    if (::testing::Test::HasFatalFailure()) return;

    // The graph restores first (it never reaches into the silos); silo
    // restores then re-record their edges idempotently on top.
    World restored;
    ASSERT_TRUE(restored.graph.Restore(original.graph.Snapshot()).ok());
    ASSERT_TRUE(restored.registry.Restore(original.registry.Snapshot()).ok());
    ASSERT_TRUE(
        restored.embeddings.Restore(original.embeddings.Snapshot()).ok());
    ASSERT_TRUE(restored.models.Restore(original.models.Snapshot()).ok());

    ExpectWorldsEqual(original, restored);
  }
}

TEST(LineagePropertyTest, RestoreWithoutGraphSnapshotStillRebuildsEdges) {
  // Restoring the silos without the graph snapshot degrades gracefully:
  // silo restores rebuild the full edge structure; only the staleness
  // annotations and the event log are gone.
  Rng rng(42);
  World original;
  RandomMutations(&original, &rng, 80);
  if (::testing::Test::HasFatalFailure()) return;

  World restored;
  ASSERT_TRUE(restored.registry.Restore(original.registry.Snapshot()).ok());
  ASSERT_TRUE(
      restored.embeddings.Restore(original.embeddings.Snapshot()).ok());
  ASSERT_TRUE(restored.models.Restore(original.models.Snapshot()).ok());

  EXPECT_EQ(restored.graph.num_artifacts(), original.graph.num_artifacts());
  EXPECT_EQ(restored.graph.num_edges(), original.graph.num_edges());
  EXPECT_EQ(restored.graph.num_events(), 0u);
  for (const ArtifactId& id : SampleArtifacts(original.graph)) {
    SCOPED_TRACE(id.ToString());
    EXPECT_EQ(restored.graph.UpstreamClosure(id),
              original.graph.UpstreamClosure(id));
    EXPECT_EQ(restored.graph.ImpactSet(id), original.graph.ImpactSet(id));
  }
}

}  // namespace
}  // namespace mlfs
