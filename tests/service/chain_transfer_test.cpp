/// Tests of the drain-handoff chain wire format (`chain_transfer.h`) and
/// its service-side endpoints: a real chained k-sweep's checkpoints
/// survive export → JSON bytes → import into a *different* service and
/// keep the incremental path alive there (the §7.4 handoff property at
/// the service level), serialization is deterministic, and malformed or
/// out-of-bounds documents are rejected rather than trusted.

#include "service/chain_transfer.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "eval/experiment.h"
#include "eval/runner.h"
#include "net/json.h"
#include "service/handler.h"
#include "service/shard_router.h"
#include "service/snapshot_registry.h"

namespace xsum::service {
namespace {

eval::ExperimentConfig TinyConfig() {
  eval::ExperimentConfig config;
  config.scale = 0.02;
  config.users_per_gender = 3;
  config.items_popular = 3;
  config.items_unpopular = 3;
  config.ks = {1, 3, 5};
  return config;
}

class ChainTransferTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    runner_ = new eval::ExperimentRunner(TinyConfig());
    ASSERT_TRUE(runner_->Init().ok());
    auto data = runner_->ComputeBaseline(rec::RecommenderKind::kPgpr);
    ASSERT_TRUE(data.ok()) << data.status();
    catalog_ = new TaskCatalog();
    for (const core::UserRecs& ur : data->users) {
      catalog_->AddUserCentric(runner_->rec_graph(), ur, 5);
    }
    registry_ = new GraphSnapshotRegistry();
    registry_->Publish(GraphSnapshotRegistry::Alias(runner_->rec_graph()));
  }

  static void TearDownTestSuite() {
    delete catalog_;
    delete registry_;
    delete runner_;
    catalog_ = nullptr;
    registry_ = nullptr;
    runner_ = nullptr;
  }

  /// Distinct unit ids of the catalog, in insertion order.
  static std::vector<uint32_t> Units() {
    std::vector<uint32_t> units;
    for (const auto& entry : catalog_->entries()) {
      if (units.empty() || units.back() != entry.unit) {
        units.push_back(entry.unit);
      }
    }
    return units;
  }

  /// A λ=0 KMB request for (unit, k): the configuration whose chain
  /// checkpoints carry state *and* stay reusable across ks (Mehlhorn
  /// computes chain-free; λ>0 costs are k-dependent, which resets the
  /// chain every step).
  static SummaryRequest ChainedRequest(uint32_t unit, int k) {
    SummaryRequest request;
    request.unit = unit;
    request.k = k;
    request.prev_k = k > 1 ? k - 1 : 0;
    request.lambda = 0.0;
    request.variant = core::SteinerOptions::Variant::kKmb;
    return request;
  }

  /// Runs the chained sweep k = 1..max_k of \p unit on \p service with a
  /// route key, exactly the way the routed handler does.
  static void SweepUnit(SummaryService* service, uint32_t unit, int max_k) {
    SummaryRequest request = ChainedRequest(unit, 1);
    const uint64_t route_key = UnitFingerprint(request);
    for (int k = 1; k <= max_k; ++k) {
      const core::SummaryTask* task =
          catalog_->Find(core::Scenario::kUserCentric, unit, k);
      ASSERT_NE(task, nullptr);
      const core::SummaryTask* predecessor =
          k > 1 ? catalog_->Find(core::Scenario::kUserCentric, unit, k - 1)
                : nullptr;
      request.k = k;
      const auto result = service->Summarize(*task, RequestOptions(request),
                                             predecessor, nullptr, route_key);
      ASSERT_TRUE(result.ok()) << result.status();
    }
  }

  static eval::ExperimentRunner* runner_;
  static TaskCatalog* catalog_;
  static GraphSnapshotRegistry* registry_;
};

eval::ExperimentRunner* ChainTransferTest::runner_ = nullptr;
TaskCatalog* ChainTransferTest::catalog_ = nullptr;
GraphSnapshotRegistry* ChainTransferTest::registry_ = nullptr;

TEST_F(ChainTransferTest, RoundTripThroughWireBytesPreservesCheckpoints) {
  SummaryService source(registry_);
  for (const uint32_t unit : Units()) SweepUnit(&source, unit, 3);
  const std::vector<SummaryCache::ChainExport> exports =
      source.ExportChains();
  ASSERT_FALSE(exports.empty()) << "routed sweeps must leave exportable "
                                   "chains (route-keyed cache entries)";

  for (const SummaryCache::ChainExport& entry : exports) {
    // Through the actual wire bytes, not just the value tree.
    const std::string wire = ChainCheckpointToJson(entry).Dump();
    const auto parsed = net::ParseJson(wire);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    const auto checkpoint = ChainCheckpointFromJson(*parsed);
    ASSERT_TRUE(checkpoint.ok()) << checkpoint.status();
    EXPECT_EQ(checkpoint->key.snapshot_version, entry.key.snapshot_version);
    EXPECT_EQ(checkpoint->key.fp_hi, entry.key.fp_hi);
    EXPECT_EQ(checkpoint->key.fp_lo, entry.key.fp_lo);
    EXPECT_EQ(checkpoint->route_key, entry.route_key);
    EXPECT_TRUE(checkpoint->chain.has_state);
    EXPECT_EQ(checkpoint->chain.graph, nullptr)
        << "the importing service re-anchors the graph";
    EXPECT_EQ(checkpoint->chain.method, entry.chain->method);
    EXPECT_EQ(checkpoint->chain.closure.pairs.size(),
              entry.chain->closure.pairs.size());
    EXPECT_EQ(checkpoint->chain.closure.arena.size(),
              entry.chain->closure.arena.size());
    // Determinism: re-exporting the re-imported checkpoint yields the
    // same bytes (pair order is sorted, not hash-map order).
    SummaryCache::ChainExport echo;
    echo.key = checkpoint->key;
    echo.route_key = checkpoint->route_key;
    echo.chain = std::make_shared<core::SummaryChain>(checkpoint->chain);
    EXPECT_EQ(ChainCheckpointToJson(echo).Dump(), wire);
  }
}

TEST_F(ChainTransferTest, ImportedChainsKeepIncrementalReuseAliveElsewhere) {
  SummaryService source(registry_);
  for (const uint32_t unit : Units()) SweepUnit(&source, unit, 3);
  ASSERT_GT(source.Stats().incremental, 0u)
      << "premise: the chained sweep itself reuses closure rows";

  // Hand every checkpoint to a cold destination service, through the
  // wire format (what /drain → /chains does across processes).
  SummaryService dest(registry_);
  size_t imported = 0;
  for (const SummaryCache::ChainExport& entry : source.ExportChains()) {
    const auto parsed = net::ParseJson(ChainCheckpointToJson(entry).Dump());
    ASSERT_TRUE(parsed.ok());
    auto checkpoint = ChainCheckpointFromJson(*parsed);
    ASSERT_TRUE(checkpoint.ok()) << checkpoint.status();
    const Status status =
        dest.ImportChain(checkpoint->key, checkpoint->route_key,
                         std::move(checkpoint->chain));
    ASSERT_TRUE(status.ok()) << status;
    ++imported;
  }
  EXPECT_EQ(dest.Stats().chains_imported, imported);

  // Extending each sweep on the destination (k=4 from the imported k=3
  // checkpoint) must run incrementally — the §5 reuse survived the move.
  const uint64_t before = dest.Stats().incremental;
  for (const uint32_t unit : Units()) {
    const SummaryRequest request = ChainedRequest(unit, 4);
    const core::SummaryTask* task =
        catalog_->Find(core::Scenario::kUserCentric, unit, 4);
    const core::SummaryTask* predecessor =
        catalog_->Find(core::Scenario::kUserCentric, unit, 3);
    ASSERT_NE(task, nullptr);
    ASSERT_NE(predecessor, nullptr);
    const auto result =
        dest.Summarize(*task, RequestOptions(request), predecessor, nullptr,
                       UnitFingerprint(request));
    ASSERT_TRUE(result.ok()) << result.status();

    // And the answer is the same bits a hint-free compute produces.
    SummaryService fresh(registry_);
    const auto direct = fresh.Summarize(*task, RequestOptions(request));
    ASSERT_TRUE(direct.ok()) << direct.status();
    EXPECT_EQ(SummaryToJson((*result)->summary(), 1),
              SummaryToJson((*direct)->summary(), 1));
  }
  EXPECT_GT(dest.Stats().incremental, before)
      << "imported checkpoints never fed an incremental compute";
}

TEST_F(ChainTransferTest, ImportRejectsVersionSkewAndMissingSnapshot) {
  SummaryService source(registry_);
  SweepUnit(&source, Units().front(), 2);
  const auto exports = source.ExportChains();
  ASSERT_FALSE(exports.empty());

  // No published snapshot: nothing to anchor to.
  GraphSnapshotRegistry empty_registry;
  SummaryService unpublished(&empty_registry);
  core::SummaryChain chain = *exports.front().chain;
  Status status = unpublished.ImportChain(exports.front().key,
                                          exports.front().route_key, chain);
  EXPECT_TRUE(status.IsFailedPrecondition()) << status;

  // Checkpoint from another snapshot version: stale, refused.
  SummaryService dest(registry_);
  CacheKey stale = exports.front().key;
  stale.snapshot_version += 1;
  chain = *exports.front().chain;
  status = dest.ImportChain(stale, exports.front().route_key, chain);
  EXPECT_TRUE(status.IsInvalidArgument()) << status;
  EXPECT_EQ(dest.Stats().chains_imported, 0u);
}

/// A minimal structurally valid checkpoint document for mutation tests.
net::JsonValue MinimalDoc() {
  net::JsonValue json = net::JsonValue::Object();
  json.Set("v", 1);
  json.Set("snapshot_version", 1);
  json.Set("fp_hi", "a1");
  json.Set("fp_lo", "b2");
  json.Set("route_key", "c3");
  json.Set("method", 1);
  json.Set("variant", 0);
  json.Set("sig_kind", 0);
  json.Set("sig_mode", 0);
  json.Set("deviations", net::JsonValue::Array());
  net::JsonValue pair = net::JsonValue::Array();
  pair.Append("7");
  pair.Append("3ff0000000000000");  // 1.0
  pair.Append(0);
  pair.Append(3);
  net::JsonValue pairs = net::JsonValue::Array();
  pairs.Append(std::move(pair));
  json.Set("pairs", std::move(pairs));
  net::JsonValue arena = net::JsonValue::Array();
  arena.Append(4);
  arena.Append(5);
  arena.Append(6);
  json.Set("arena", std::move(arena));
  json.Set("links", 2);
  json.Set("resets", 0);
  return json;
}

TEST(ChainTransferValidationTest, MinimalDocumentParses) {
  const auto checkpoint = ChainCheckpointFromJson(MinimalDoc());
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status();
  EXPECT_EQ(checkpoint->key.fp_hi, 0xa1u);
  EXPECT_EQ(checkpoint->route_key, 0xc3u);
  EXPECT_EQ(checkpoint->chain.closure.arena.size(), 3u);
  EXPECT_EQ(checkpoint->chain.links, 2u);
  const auto it = checkpoint->chain.closure.pairs.find(7);
  ASSERT_NE(it, checkpoint->chain.closure.pairs.end());
  EXPECT_DOUBLE_EQ(it->second.dist, 1.0);
}

TEST(ChainTransferValidationTest, RejectsMalformedDocuments) {
  {
    net::JsonValue doc = MinimalDoc();
    doc.Set("v", kChainWireVersion + 1);  // future wire version
    EXPECT_FALSE(ChainCheckpointFromJson(doc).ok());
  }
  {
    net::JsonValue doc = MinimalDoc();
    doc.Set("fp_hi", "xyz");  // non-hex digits
    EXPECT_FALSE(ChainCheckpointFromJson(doc).ok());
  }
  {
    net::JsonValue doc = MinimalDoc();
    doc.Set("fp_lo", "00112233445566778");  // 17 digits: overflow
    EXPECT_FALSE(ChainCheckpointFromJson(doc).ok());
  }
  {
    net::JsonValue doc = MinimalDoc();
    doc.Set("sig_kind", 9);  // out-of-range enum
    EXPECT_FALSE(ChainCheckpointFromJson(doc).ok());
  }
  {
    net::JsonValue doc = MinimalDoc();
    doc.Set("arena", net::JsonValue::Array());  // pair span now OOB
    EXPECT_FALSE(ChainCheckpointFromJson(doc).ok());
  }
  {
    net::JsonValue doc = MinimalDoc();
    net::JsonValue pair = net::JsonValue::Array();
    pair.Append("8");
    pair.Append("0");
    pair.Append(2);
    pair.Append(1);  // end < begin
    net::JsonValue pairs = net::JsonValue::Array();
    pairs.Append(std::move(pair));
    doc.Set("pairs", std::move(pairs));
    EXPECT_FALSE(ChainCheckpointFromJson(doc).ok());
  }
  {
    net::JsonValue doc = MinimalDoc();
    doc.Set("links", -1);  // negative counter
    EXPECT_FALSE(ChainCheckpointFromJson(doc).ok());
  }
  EXPECT_FALSE(ChainCheckpointFromJson(net::JsonValue("nope")).ok());
  EXPECT_FALSE(ChainCheckpointFromJson(net::JsonValue::Object()).ok());
}

}  // namespace
}  // namespace xsum::service
