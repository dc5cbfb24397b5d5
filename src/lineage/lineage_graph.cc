#include "lineage/lineage_graph.h"

#include <algorithm>
#include <deque>

#include "common/serde.h"
#include "io/block_file.h"

namespace mlfs {

std::string_view ArtifactKindToString(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kSourceTable:
      return "table";
    case ArtifactKind::kSourceColumn:
      return "column";
    case ArtifactKind::kFeature:
      return "feature";
    case ArtifactKind::kEmbedding:
      return "embedding";
    case ArtifactKind::kModel:
      return "model";
    case ArtifactKind::kView:
      return "view";
  }
  return "unknown";
}

std::string_view EdgeKindToString(EdgeKind kind) {
  switch (kind) {
    case EdgeKind::kDerivedFrom:
      return "derived_from";
    case EdgeKind::kTrainedOn:
      return "trained_on";
    case EdgeKind::kPins:
      return "pins";
    case EdgeKind::kPatchedInto:
      return "patched_into";
    case EdgeKind::kMaterializes:
      return "materializes";
  }
  return "unknown";
}

std::string_view StalenessReasonToString(StalenessReason reason) {
  switch (reason) {
    case StalenessReason::kSuperseded:
      return "superseded";
    case StalenessReason::kDeprecated:
      return "deprecated";
    case StalenessReason::kDrift:
      return "drift";
  }
  return "unknown";
}

std::string ArtifactId::ToString() const {
  std::string out(ArtifactKindToString(kind));
  out += ':';
  out += FormatVersionedRef(name, version);
  return out;
}

std::string StalenessInfo::ToString() const {
  std::string out = source.ToString();
  out += ' ';
  out += StalenessReasonToString(reason);
  if (!detail.empty()) {
    out += " (";
    out += detail;
    out += ')';
  }
  return out;
}

size_t LineageGraph::InternLocked(const ArtifactId& id) {
  auto it = index_.find(id);
  if (it != index_.end()) return it->second;
  uint32_t node = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(Node{id, {}, {}});
  index_.emplace(id, node);
  return node;
}

Status LineageGraph::AddArtifact(const ArtifactId& id) {
  if (id.name.empty()) {
    return Status::InvalidArgument("artifact needs a name");
  }
  std::unique_lock lock(mu_);
  InternLocked(id);
  return Status::OK();
}

bool LineageGraph::ReachesLocked(uint32_t start, uint32_t goal) const {
  if (start == goal) return true;
  std::vector<bool> seen(nodes_.size(), false);
  std::deque<uint32_t> frontier{start};
  seen[start] = true;
  while (!frontier.empty()) {
    uint32_t node = frontier.front();
    frontier.pop_front();
    for (const auto& [next, kind] : nodes_[node].out) {
      if (next == goal) return true;
      if (!seen[next]) {
        seen[next] = true;
        frontier.push_back(next);
      }
    }
  }
  return false;
}

Status LineageGraph::AddEdge(const ArtifactId& from, EdgeKind kind,
                             const ArtifactId& to) {
  if (from.name.empty() || to.name.empty()) {
    return Status::InvalidArgument("edge endpoints need names");
  }
  if (from == to) {
    return Status::FailedPrecondition("self-edge on " + from.ToString());
  }
  std::unique_lock lock(mu_);
  uint32_t f = static_cast<uint32_t>(InternLocked(from));
  uint32_t t = static_cast<uint32_t>(InternLocked(to));
  for (const auto& [next, existing_kind] : nodes_[f].out) {
    if (next == t && existing_kind == kind) return Status::OK();  // Dup.
  }
  // `from` depends on `to`; if `from` were reachable *from* `to` along
  // dependency edges, `to` would (transitively) depend on `from` and this
  // edge would close a cycle.
  if (ReachesLocked(t, f)) {
    return Status::FailedPrecondition(
        "edge " + from.ToString() + " -" + std::string(EdgeKindToString(kind)) +
        "-> " + to.ToString() + " would create a cycle");
  }
  nodes_[f].out.emplace_back(t, kind);
  nodes_[t].in.emplace_back(f, kind);
  ++num_edges_;
  return Status::OK();
}

bool LineageGraph::HasArtifact(const ArtifactId& id) const {
  std::shared_lock lock(mu_);
  return index_.count(id) > 0;
}

size_t LineageGraph::num_artifacts() const {
  std::shared_lock lock(mu_);
  return nodes_.size();
}

size_t LineageGraph::num_edges() const {
  std::shared_lock lock(mu_);
  return num_edges_;
}

std::vector<LineageEdge> LineageGraph::OutEdges(const ArtifactId& id) const {
  std::shared_lock lock(mu_);
  std::vector<LineageEdge> out;
  auto it = index_.find(id);
  if (it == index_.end()) return out;
  const Node& node = nodes_[it->second];
  out.reserve(node.out.size());
  for (const auto& [next, kind] : node.out) {
    out.push_back(LineageEdge{node.id, kind, nodes_[next].id});
  }
  return out;
}

std::vector<LineageEdge> LineageGraph::InEdges(const ArtifactId& id) const {
  std::shared_lock lock(mu_);
  std::vector<LineageEdge> out;
  auto it = index_.find(id);
  if (it == index_.end()) return out;
  const Node& node = nodes_[it->second];
  out.reserve(node.in.size());
  for (const auto& [prev, kind] : node.in) {
    out.push_back(LineageEdge{nodes_[prev].id, kind, node.id});
  }
  return out;
}

std::vector<ArtifactId> LineageGraph::VersionsOf(
    ArtifactKind kind, const std::string& name) const {
  std::shared_lock lock(mu_);
  std::vector<ArtifactId> out;
  // ArtifactId ordering is (kind, name, version): all versions are a
  // contiguous map range.
  for (auto it = index_.lower_bound({kind, name, 0});
       it != index_.end() && it->first.kind == kind && it->first.name == name;
       ++it) {
    out.push_back(it->first);
  }
  return out;
}

std::vector<uint32_t> LineageGraph::ClosureLocked(uint32_t start,
                                                  bool downstream,
                                                  bool skip_same_name) const {
  std::vector<bool> seen(nodes_.size(), false);
  std::deque<uint32_t> frontier{start};
  seen[start] = true;
  std::vector<uint32_t> out;
  const ArtifactId& origin = nodes_[start].id;
  while (!frontier.empty()) {
    uint32_t node = frontier.front();
    frontier.pop_front();
    const auto& edges = downstream ? nodes_[node].in : nodes_[node].out;
    for (const auto& [next, kind] : edges) {
      if (seen[next]) continue;
      seen[next] = true;
      const ArtifactId& next_id = nodes_[next].id;
      if (skip_same_name && next_id.kind == origin.kind &&
          next_id.name == origin.name) {
        continue;  // Another version of the origin: not a consumer.
      }
      out.push_back(next);
      frontier.push_back(next);
    }
  }
  return out;
}

std::vector<ArtifactId> LineageGraph::IdsOfLocked(
    const std::vector<uint32_t>& nodes) const {
  std::vector<ArtifactId> out;
  out.reserve(nodes.size());
  for (uint32_t node : nodes) out.push_back(nodes_[node].id);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ArtifactId> LineageGraph::UpstreamClosure(
    const ArtifactId& id) const {
  std::shared_lock lock(mu_);
  auto it = index_.find(id);
  if (it == index_.end()) return {};
  return IdsOfLocked(ClosureLocked(it->second, /*downstream=*/false,
                                   /*skip_same_name=*/false));
}

std::vector<ArtifactId> LineageGraph::DownstreamClosure(
    const ArtifactId& id) const {
  std::shared_lock lock(mu_);
  auto it = index_.find(id);
  if (it == index_.end()) return {};
  return IdsOfLocked(ClosureLocked(it->second, /*downstream=*/true,
                                   /*skip_same_name=*/false));
}

std::vector<ArtifactId> LineageGraph::ImpactSet(const ArtifactId& id) const {
  std::shared_lock lock(mu_);
  auto it = index_.find(id);
  if (it == index_.end()) return {};
  return IdsOfLocked(ClosureLocked(it->second, /*downstream=*/true,
                                   /*skip_same_name=*/true));
}

StatusOr<StalenessEvent> LineageGraph::MarkStale(const ArtifactId& source,
                                                 StalenessReason reason,
                                                 Timestamp at,
                                                 std::string detail) {
  StalenessEvent event;
  {
    std::unique_lock lock(mu_);
    auto it = index_.find(source);
    if (it == index_.end()) {
      return Status::NotFound("artifact " + source.ToString() +
                              " is not in the lineage graph");
    }
    event.source = source;
    event.reason = reason;
    event.at = at;
    event.detail = std::move(detail);
    std::vector<uint32_t> impacted = ClosureLocked(
        it->second, /*downstream=*/true, /*skip_same_name=*/true);
    event.impacted = IdsOfLocked(impacted);
    StalenessInfo info{reason, at, source, event.detail};
    stale_[it->second] = info;
    for (uint32_t node : impacted) stale_[node] = info;
    events_.push_back(event);
  }
  NotifyListeners(event);
  return event;
}

void LineageGraph::ClearStale(const ArtifactId& id) {
  std::unique_lock lock(mu_);
  auto it = index_.find(id);
  if (it != index_.end()) stale_.erase(it->second);
}

std::optional<StalenessInfo> LineageGraph::StalenessOf(
    const ArtifactId& id) const {
  std::shared_lock lock(mu_);
  auto it = index_.find(id);
  if (it == index_.end()) return std::nullopt;
  auto stale_it = stale_.find(it->second);
  if (stale_it == stale_.end()) return std::nullopt;
  return stale_it->second;
}

std::vector<StalenessEvent> LineageGraph::Events() const {
  std::shared_lock lock(mu_);
  return events_;
}

size_t LineageGraph::num_events() const {
  std::shared_lock lock(mu_);
  return events_.size();
}

void LineageGraph::Subscribe(StalenessListener listener) {
  std::lock_guard lock(listeners_mu_);
  listeners_.push_back(std::move(listener));
}

void LineageGraph::NotifyListeners(const StalenessEvent& event) const {
  // Copy under the listener lock, invoke outside every lock so a listener
  // may query the graph (or emit alerts) without deadlocking.
  std::vector<StalenessListener> listeners;
  {
    std::lock_guard lock(listeners_mu_);
    listeners = listeners_;
  }
  for (const StalenessListener& listener : listeners) listener(event);
}

Status LineageGraph::RecordMaterialization(const ArtifactId& view,
                                           const ArtifactId& target) {
  MLFS_RETURN_IF_ERROR(AddEdge(view, EdgeKind::kMaterializes, target));
  std::unique_lock lock(mu_);
  uint32_t v = index_.at(view);
  uint32_t t = index_.at(target);
  // A materialization run refreshes the view: it now reflects `target`, so
  // it is exactly as stale as `target` is.
  auto target_stale = stale_.find(t);
  if (target_stale == stale_.end()) {
    stale_.erase(v);
  } else {
    stale_[v] = target_stale->second;
  }
  return Status::OK();
}

namespace {

constexpr uint32_t kLineageSnapshotMagic = 0x4d4c4c47;  // "MLLG"
constexpr uint32_t kLineageSnapshotVersion = 2;  // v2: Checksum64 trailer.

void PutArtifact(Encoder* enc, const ArtifactId& id) {
  enc->PutU8(static_cast<uint8_t>(id.kind));
  enc->PutString(id.name);
  enc->PutVarint64(static_cast<uint64_t>(id.version));
}

StatusOr<ArtifactId> GetArtifact(Decoder* dec) {
  ArtifactId id;
  MLFS_ASSIGN_OR_RETURN(uint8_t kind, dec->GetU8());
  if (kind > static_cast<uint8_t>(ArtifactKind::kView)) {
    return Status::Corruption("bad artifact kind tag");
  }
  id.kind = static_cast<ArtifactKind>(kind);
  MLFS_ASSIGN_OR_RETURN(id.name, dec->GetString());
  MLFS_ASSIGN_OR_RETURN(uint64_t version, dec->GetVarint64());
  id.version = static_cast<int>(version);
  return id;
}

void PutStalenessInfo(Encoder* enc, const StalenessInfo& info) {
  enc->PutU8(static_cast<uint8_t>(info.reason));
  enc->PutFixed64(static_cast<uint64_t>(info.at));
  PutArtifact(enc, info.source);
  enc->PutString(info.detail);
}

StatusOr<StalenessInfo> GetStalenessInfo(Decoder* dec) {
  StalenessInfo info;
  MLFS_ASSIGN_OR_RETURN(uint8_t reason, dec->GetU8());
  if (reason > static_cast<uint8_t>(StalenessReason::kDrift)) {
    return Status::Corruption("bad staleness reason tag");
  }
  info.reason = static_cast<StalenessReason>(reason);
  MLFS_ASSIGN_OR_RETURN(uint64_t at, dec->GetFixed64());
  info.at = static_cast<Timestamp>(at);
  MLFS_ASSIGN_OR_RETURN(info.source, GetArtifact(dec));
  MLFS_ASSIGN_OR_RETURN(info.detail, dec->GetString());
  return info;
}

}  // namespace

std::string LineageGraph::Snapshot() const {
  std::shared_lock lock(mu_);
  Encoder enc;
  enc.PutVarint64(nodes_.size());
  for (const Node& node : nodes_) PutArtifact(&enc, node.id);
  enc.PutVarint64(num_edges_);
  for (uint32_t from = 0; from < nodes_.size(); ++from) {
    for (const auto& [to, kind] : nodes_[from].out) {
      enc.PutVarint64(from);
      enc.PutU8(static_cast<uint8_t>(kind));
      enc.PutVarint64(to);
    }
  }
  enc.PutVarint64(stale_.size());
  for (const auto& [node, info] : stale_) {
    enc.PutVarint64(node);
    PutStalenessInfo(&enc, info);
  }
  enc.PutVarint64(events_.size());
  for (const StalenessEvent& event : events_) {
    PutArtifact(&enc, event.source);
    enc.PutU8(static_cast<uint8_t>(event.reason));
    enc.PutFixed64(static_cast<uint64_t>(event.at));
    enc.PutString(event.detail);
    enc.PutVarint64(event.impacted.size());
    for (const ArtifactId& id : event.impacted) PutArtifact(&enc, id);
  }
  return BlockFile::Seal(kLineageSnapshotMagic, kLineageSnapshotVersion,
                         enc.buffer());
}

Status LineageGraph::Restore(std::string_view snapshot) {
  std::unique_lock lock(mu_);
  if (!nodes_.empty() || !events_.empty()) {
    return Status::FailedPrecondition("Restore requires an empty graph");
  }
  MLFS_ASSIGN_OR_RETURN(
      std::string_view body,
      BlockFile::Unseal(kLineageSnapshotMagic, kLineageSnapshotVersion,
                        snapshot, "lineage snapshot"));
  Decoder dec(body);
  MLFS_ASSIGN_OR_RETURN(uint64_t num_nodes, dec.GetVarint64());
  for (uint64_t i = 0; i < num_nodes; ++i) {
    MLFS_ASSIGN_OR_RETURN(ArtifactId id, GetArtifact(&dec));
    if (index_.count(id)) return Status::Corruption("duplicate artifact");
    InternLocked(id);
  }
  MLFS_ASSIGN_OR_RETURN(uint64_t num_edges, dec.GetVarint64());
  for (uint64_t i = 0; i < num_edges; ++i) {
    MLFS_ASSIGN_OR_RETURN(uint64_t from, dec.GetVarint64());
    MLFS_ASSIGN_OR_RETURN(uint8_t kind, dec.GetU8());
    MLFS_ASSIGN_OR_RETURN(uint64_t to, dec.GetVarint64());
    if (from >= nodes_.size() || to >= nodes_.size() || from == to ||
        kind > static_cast<uint8_t>(EdgeKind::kMaterializes)) {
      return Status::Corruption("bad lineage edge");
    }
    nodes_[from].out.emplace_back(static_cast<uint32_t>(to),
                                  static_cast<EdgeKind>(kind));
    nodes_[to].in.emplace_back(static_cast<uint32_t>(from),
                               static_cast<EdgeKind>(kind));
    ++num_edges_;
  }
  MLFS_ASSIGN_OR_RETURN(uint64_t num_stale, dec.GetVarint64());
  for (uint64_t i = 0; i < num_stale; ++i) {
    MLFS_ASSIGN_OR_RETURN(uint64_t node, dec.GetVarint64());
    if (node >= nodes_.size()) return Status::Corruption("bad stale node");
    MLFS_ASSIGN_OR_RETURN(StalenessInfo info, GetStalenessInfo(&dec));
    stale_[static_cast<uint32_t>(node)] = std::move(info);
  }
  MLFS_ASSIGN_OR_RETURN(uint64_t num_events, dec.GetVarint64());
  for (uint64_t i = 0; i < num_events; ++i) {
    StalenessEvent event;
    MLFS_ASSIGN_OR_RETURN(event.source, GetArtifact(&dec));
    MLFS_ASSIGN_OR_RETURN(uint8_t reason, dec.GetU8());
    if (reason > static_cast<uint8_t>(StalenessReason::kDrift)) {
      return Status::Corruption("bad staleness reason tag");
    }
    event.reason = static_cast<StalenessReason>(reason);
    MLFS_ASSIGN_OR_RETURN(uint64_t at, dec.GetFixed64());
    event.at = static_cast<Timestamp>(at);
    MLFS_ASSIGN_OR_RETURN(event.detail, dec.GetString());
    MLFS_ASSIGN_OR_RETURN(uint64_t num_impacted, dec.GetVarint64());
    for (uint64_t j = 0; j < num_impacted; ++j) {
      MLFS_ASSIGN_OR_RETURN(ArtifactId id, GetArtifact(&dec));
      event.impacted.push_back(std::move(id));
    }
    events_.push_back(std::move(event));
  }
  return Status::OK();
}

}  // namespace mlfs
