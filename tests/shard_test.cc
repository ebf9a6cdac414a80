#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/random.h"
#include "common/shard_hash.h"
#include "common/thread_pool.h"
#include "core/engine_context.h"
#include "datagen/kg_generator.h"
#include "datagen/workload_generator.h"
#include "query/query_text.h"
#include "serve/http_client.h"
#include "serve/http_server.h"
#include "serve/query_service.h"
#include "shard/channel.h"
#include "shard/coordinator.h"
#include "shard/partitioner.h"
#include "shard/replica_set.h"
#include "shard/sharded_engine.h"
#include "shard/wire.h"

namespace kgaq {
namespace {

const GeneratedDataset& MiniDataset() {
  static GeneratedDataset* ds = [] {
    auto r = KgGenerator::Generate(DatasetProfile::Mini(7));
    return new GeneratedDataset(std::move(*r));
  }();
  return *ds;
}

std::vector<AggregateQuery> MixedWorkload() {
  const auto& ds = MiniDataset();
  std::vector<AggregateQuery> qs;
  qs.push_back(WorkloadGenerator::SimpleQuery(ds, 0, 0,
                                              AggregateFunction::kCount));
  qs.push_back(WorkloadGenerator::SimpleQuery(ds, 1, 0,
                                              AggregateFunction::kAvg));
  qs.push_back(WorkloadGenerator::SimpleQuery(ds, 2, 1,
                                              AggregateFunction::kSum));
  qs.push_back(WorkloadGenerator::ChainQuery(ds, 0, 0,
                                             AggregateFunction::kCount));
  qs.push_back(WorkloadGenerator::SimpleQuery(ds, 1, 1,
                                              AggregateFunction::kCount));
  qs.push_back(WorkloadGenerator::ChainQuery(ds, 1, 0,
                                             AggregateFunction::kAvg));
  qs.push_back(WorkloadGenerator::SimpleQuery(ds, 0, 1,
                                              AggregateFunction::kMax));
  qs.push_back(WorkloadGenerator::SimpleQuery(ds, 2, 0,
                                              AggregateFunction::kAvg));
  return qs;
}

void ExpectResultsBitwiseEqual(const AggregateResult& a,
                               const AggregateResult& b, size_t index) {
  EXPECT_EQ(a.v_hat, b.v_hat) << "query " << index;
  EXPECT_EQ(a.moe, b.moe) << "query " << index;
  EXPECT_EQ(a.satisfied, b.satisfied) << "query " << index;
  EXPECT_EQ(a.rounds, b.rounds) << "query " << index;
  EXPECT_EQ(a.total_draws, b.total_draws) << "query " << index;
  EXPECT_EQ(a.correct_draws, b.correct_draws) << "query " << index;
  EXPECT_EQ(a.num_candidates, b.num_candidates) << "query " << index;
  ASSERT_EQ(a.groups.size(), b.groups.size()) << "query " << index;
  for (size_t gi = 0; gi < a.groups.size(); ++gi) {
    EXPECT_EQ(a.groups[gi].v_hat, b.groups[gi].v_hat);
    EXPECT_EQ(a.groups[gi].moe, b.groups[gi].moe);
  }
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

constexpr uint64_t kBaseSeed = 321;

// The unsharded reference answers for MixedWorkload under kBaseSeed —
// what a flat QueryService returns, and what deterministic-merge mode
// must reproduce bit for bit.
const std::vector<AggregateResult>& UnshardedReference() {
  static std::vector<AggregateResult>* ref = [] {
    const auto& ds = MiniDataset();
    auto ctx = std::make_shared<EngineContext>(ds.graph(),
                                               ds.reference_embedding());
    ServiceOptions sopts;
    sopts.base_seed = kBaseSeed;
    auto served = QueryService::RunBatch(ctx, MixedWorkload(), sopts);
    auto* out = new std::vector<AggregateResult>;
    for (auto& r : served) {
      EXPECT_TRUE(r.ok()) << r.status();
      out->push_back(std::move(*r));
    }
    return out;
  }();
  return *ref;
}

uint64_t CoordinatorBuckets(const CoordinatorStats& cs) {
  return cs.done + cs.failed + cs.cancelled + cs.deadline_expired +
         cs.rejected + cs.shed;
}

// Resets the process-global fault registry on scope exit so one test's
// armed points can never leak into the next.
struct FaultGuard {
  ~FaultGuard() { fault_injection::Reset(); }
};

// Wraps a channel and fails Validate from the `fail_from`-th call on
// (1-based), simulating a shard that dies mid-run after serving some
// rounds. Everything else passes through.
class FlakyValidateChannel final : public ShardChannel {
 public:
  FlakyValidateChannel(std::unique_ptr<ShardChannel> inner, int fail_from)
      : inner_(std::move(inner)), fail_from_(fail_from) {}

  Result<ShardPlanResult> Plan(const ShardPlanRequest& request) override {
    return inner_->Plan(request);
  }
  Result<std::vector<NodeOutcome>> Validate(
      const ShardValidateRequest& request) override {
    if (calls_.fetch_add(1) + 1 >= fail_from_) {
      return Status::Unavailable("synthetic shard loss");
    }
    return inner_->Validate(request);
  }
  Status Release(uint64_t token) override { return inner_->Release(token); }
  Result<QueryResponse> SubQuery(const QueryRequest& request) override {
    return inner_->SubQuery(request);
  }

 private:
  std::unique_ptr<ShardChannel> inner_;
  int fail_from_;
  std::atomic<int> calls_{0};
};

// Drops the last candidate of every owned slice this shard plans, as a
// halo too small to reach it would: the merge's coverage check must fail
// the query, and every shard's plan session must still be released.
class TruncatingPlanChannel final : public ShardChannel {
 public:
  explicit TruncatingPlanChannel(std::unique_ptr<ShardChannel> inner)
      : inner_(std::move(inner)) {}

  Result<ShardPlanResult> Plan(const ShardPlanRequest& request) override {
    auto plan = inner_->Plan(request);
    if (plan.ok() && !plan->indices.empty()) {
      plan->indices.pop_back();
      plan->nodes.pop_back();
      plan->probs.pop_back();
    }
    return plan;
  }
  Result<std::vector<NodeOutcome>> Validate(
      const ShardValidateRequest& request) override {
    return inner_->Validate(request);
  }
  Status Release(uint64_t token) override { return inner_->Release(token); }
  Result<QueryResponse> SubQuery(const QueryRequest& request) override {
    return inner_->SubQuery(request);
  }

 private:
  std::unique_ptr<ShardChannel> inner_;
};

// Counts validate requests, and those that name a candidate more than
// once: a round sends each drawn candidate to its owner once, however
// often it was drawn.
class DistinctIndicesChannel final : public ShardChannel {
 public:
  DistinctIndicesChannel(std::unique_ptr<ShardChannel> inner,
                         std::atomic<int>* validates,
                         std::atomic<int>* repeats)
      : inner_(std::move(inner)), validates_(validates), repeats_(repeats) {}

  Result<ShardPlanResult> Plan(const ShardPlanRequest& request) override {
    return inner_->Plan(request);
  }
  Result<std::vector<NodeOutcome>> Validate(
      const ShardValidateRequest& request) override {
    std::vector<size_t> sorted = request.indices;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      repeats_->fetch_add(1);
    }
    validates_->fetch_add(1);
    return inner_->Validate(request);
  }
  Status Release(uint64_t token) override { return inner_->Release(token); }
  Result<QueryResponse> SubQuery(const QueryRequest& request) override {
    return inner_->SubQuery(request);
  }

 private:
  std::unique_ptr<ShardChannel> inner_;
  std::atomic<int>* validates_;
  std::atomic<int>* repeats_;
};

// Builds cuts + contexts + nodes for hand-assembled coordinators. The
// returned struct owns everything the channels point into.
struct ManualShards {
  std::vector<ShardCut> cuts;
  std::vector<std::shared_ptr<const EngineContext>> contexts;
  std::vector<std::unique_ptr<ShardNode>> nodes;
};

ManualShards BuildManualShards(uint32_t num_shards) {
  const auto& ds = MiniDataset();
  KgPartitioner::Options popts;
  popts.num_shards = num_shards;
  auto cuts = KgPartitioner::Partition(ds.graph(), popts);
  EXPECT_TRUE(cuts.ok()) << cuts.status();
  ManualShards out;
  out.cuts = std::move(*cuts);
  for (auto& cut : out.cuts) {
    out.contexts.push_back(std::make_shared<EngineContext>(
        cut.graph, ds.reference_embedding()));
    auto node =
        ShardNode::Create(out.contexts.back(), cut.info, ServiceOptions{});
    EXPECT_TRUE(node.ok()) << node.status();
    out.nodes.push_back(std::move(*node));
  }
  return out;
}

TEST(KgPartitionerTest, CoversEveryNodeExactlyOnce) {
  const auto& g = MiniDataset().graph();
  for (uint32_t n : {2u, 4u}) {
    KgPartitioner::Options popts;
    popts.num_shards = n;
    auto cuts = KgPartitioner::Partition(g, popts);
    ASSERT_TRUE(cuts.ok()) << cuts.status();
    ASSERT_EQ(cuts->size(), n);
    std::vector<uint32_t> owner_count(g.NumNodes(), 0);
    for (uint32_t s = 0; s < n; ++s) {
      const ShardCut& cut = (*cuts)[s];
      EXPECT_EQ(cut.info.num_shards, n);
      EXPECT_EQ(cut.info.shard_index, s);
      EXPECT_EQ(cut.info.owned_nodes, cut.owned.size());
      EXPECT_EQ(cut.info.global_triples, g.NumEdges());
      // The cut keeps the full node table so shard-local ids equal
      // global ids — the foundation of the parity contract.
      EXPECT_EQ(cut.graph.NumNodes(), g.NumNodes());
      EXPECT_LE(cut.graph.NumEdges(), g.NumEdges());
      for (NodeId u : cut.owned) {
        ASSERT_LT(u, g.NumNodes());
        ++owner_count[u];
        EXPECT_EQ(ShardOfName(g.NodeName(u), n), s);
        EXPECT_EQ(KgPartitioner::OwnerOf(g, u, n), s);
      }
    }
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      EXPECT_EQ(owner_count[u], 1u) << "node " << u << " at " << n
                                    << " shards";
    }
  }
}

// THE acceptance criterion: 2- and 4-shard deterministic-merge answers
// are bitwise-identical to the unsharded service for the same base seed,
// across the whole mixed workload. Also proves the coordinator identity
// and that no plan session leaks on the happy path.
TEST(ShardedEngineTest, TwoAndFourShardMergeMatchesUnshardedBitwise) {
  const auto& ds = MiniDataset();
  const auto workload = MixedWorkload();
  const auto& expected = UnshardedReference();

  for (uint32_t n : {2u, 4u}) {
    ShardedEngineOptions opts;
    opts.num_shards = n;
    opts.base_seed = kBaseSeed;
    auto engine =
        ShardedEngine::Create(ds.graph(), ds.reference_embedding(), opts);
    ASSERT_TRUE(engine.ok()) << engine.status();

    for (size_t i = 0; i < workload.size(); ++i) {
      QueryRequest req;
      req.query = workload[i];
      QueryResponse resp = (*engine)->Execute(req);
      ASSERT_EQ(resp.state, QueryState::kDone)
          << n << " shards, query " << i << ": " << resp.status;
      EXPECT_FALSE(resp.degraded) << n << " shards, query " << i;
      EXPECT_EQ(resp.seed_used, QueryService::QuerySeed(kBaseSeed, i));
      ExpectResultsBitwiseEqual(resp.result, expected[i], i);
    }

    const CoordinatorStats cs = (*engine)->coordinator().stats();
    EXPECT_EQ(cs.submitted, workload.size());
    EXPECT_EQ(cs.done, workload.size());
    EXPECT_EQ(cs.degraded, 0u);
    EXPECT_EQ(cs.submitted, CoordinatorBuckets(cs));
    for (size_t s = 0; s < n; ++s) {
      EXPECT_EQ((*engine)->node(s).live_plan_sessions(), 0u)
          << "shard " << s << " leaked a plan session";
    }
  }
}

// Execute runs concurrent callers' queries in parallel. Four threads
// push the whole workload, each from a different starting query, into
// one 2-shard x 2-replica engine: every answer stays bitwise-identical
// to the flat service, the accounting identity holds, no plan session
// leaks, and no validate request names a candidate twice.
TEST(ShardedEngineTest, ConcurrentCallersMatchUnshardedBitwise) {
  constexpr size_t kThreads = 4;
  const auto& ds = MiniDataset();
  const auto workload = MixedWorkload();
  const auto& expected = UnshardedReference();
  std::atomic<int> validates{0};
  std::atomic<int> repeats{0};

  ShardedEngineOptions opts;
  opts.num_shards = 2;
  opts.replicas_per_shard = 2;
  opts.base_seed = kBaseSeed;
  opts.wrap_channel = [&](std::unique_ptr<ShardChannel> ch, uint32_t,
                          uint32_t) -> std::unique_ptr<ShardChannel> {
    return std::make_unique<DistinctIndicesChannel>(std::move(ch), &validates,
                                                    &repeats);
  };
  auto engine =
      ShardedEngine::Create(ds.graph(), ds.reference_embedding(), opts);
  ASSERT_TRUE(engine.ok()) << engine.status();

  std::vector<std::vector<QueryResponse>> responses(
      kThreads, std::vector<QueryResponse>(workload.size()));
  std::vector<std::thread> callers;
  for (size_t t = 0; t < kThreads; ++t) {
    callers.emplace_back([&, t] {
      for (size_t k = 0; k < workload.size(); ++k) {
        const size_t i = (t * workload.size() / kThreads + k) % workload.size();
        QueryRequest req;
        req.query = workload[i];
        req.seed = QueryService::QuerySeed(kBaseSeed, i);
        responses[t][i] = (*engine)->Execute(req);
      }
    });
  }
  for (auto& caller : callers) caller.join();

  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < workload.size(); ++i) {
      const QueryResponse& resp = responses[t][i];
      ASSERT_EQ(resp.state, QueryState::kDone)
          << "thread " << t << ", query " << i << ": " << resp.status;
      EXPECT_FALSE(resp.degraded) << "thread " << t << ", query " << i;
      ExpectResultsBitwiseEqual(resp.result, expected[i], i);
    }
  }
  const CoordinatorStats cs = (*engine)->coordinator().stats();
  EXPECT_EQ(cs.submitted, kThreads * workload.size());
  EXPECT_EQ(cs.done, kThreads * workload.size());
  EXPECT_EQ(cs.submitted, CoordinatorBuckets(cs));
  for (size_t s = 0; s < (*engine)->num_shards(); ++s) {
    for (size_t r = 0; r < (*engine)->num_replicas(s); ++r) {
      EXPECT_EQ((*engine)->node(s, r).live_plan_sessions(), 0u)
          << "shard " << s << " replica " << r;
    }
  }
  EXPECT_GT(validates.load(), 0);
  EXPECT_EQ(repeats.load(), 0) << "validate requests with a repeated index";
}

// Validates of one plan token can overlap — a validate that timed out on
// the client may still be running when its query's next round reaches
// the same session. The session's validation caches are not thread-safe,
// so the node runs them one at a time, and every caller gets the same
// outcomes.
TEST(ShardNodeTest, OverlappingValidatesOfOneTokenAgree) {
  ManualShards shards = BuildManualShards(2);
  ShardNode& node = *shards.nodes[0];
  EngineOptions options;
  options.seed = QueryService::QuerySeed(kBaseSeed, 3);
  auto plan = node.Plan(MixedWorkload()[3], options);  // a chain query
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_GT(plan->indices.size(), 1u);

  constexpr size_t kCallers = 4;
  std::vector<Result<std::vector<NodeOutcome>>> replies(
      kCallers, Status::Internal("not run"));
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      std::vector<size_t> indices = plan->indices;
      std::rotate(indices.begin(),
                  indices.begin() + c * indices.size() / kCallers,
                  indices.end());
      replies[c] = node.Validate(plan->token, indices);
    });
  }
  for (auto& caller : callers) caller.join();
  node.Release(plan->token);

  const size_t n = plan->indices.size();
  for (size_t c = 0; c < kCallers; ++c) {
    ASSERT_TRUE(replies[c].ok()) << replies[c].status();
    ASSERT_EQ(replies[c]->size(), n);
    const size_t shift = c * n / kCallers;
    for (size_t j = 0; j < n; ++j) {
      const NodeOutcome& a = (*replies[0])[j];
      const NodeOutcome& b = (*replies[c])[(j + n - shift) % n];
      EXPECT_EQ(a.correct, b.correct) << "caller " << c << ", index " << j;
      EXPECT_EQ(a.value, b.value) << "caller " << c << ", index " << j;
      EXPECT_EQ(a.group_key, b.group_key) << "caller " << c << ", index " << j;
    }
  }
  EXPECT_EQ(node.live_plan_sessions(), 0u);
}

// Remote mode: the same coordinator over HttpShardChannels speaking the
// wire format through real loopback servers answers bitwise-identically
// too — the transport cannot perturb the draw schedule.
TEST(ShardedEngineTest, HttpRemoteShardsMatchUnshardedBitwise) {
  const auto workload = MixedWorkload();
  const auto& expected = UnshardedReference();
  ManualShards shards = BuildManualShards(2);

  std::vector<std::unique_ptr<HttpServer>> servers;
  RetryOptions ropts;
  ropts.initial_backoff_ms = 1.0;
  ropts.max_backoff_ms = 20.0;
  RetryingHttpClient client(ropts);
  std::vector<std::unique_ptr<ShardChannel>> channels;
  for (auto& node : shards.nodes) {
    auto server = std::make_unique<HttpServer>(node->service());
    server->SetExtraHandler(MakeShardHttpHandler(*node));
    ASSERT_TRUE(server->Start().ok());
    channels.push_back(std::make_unique<HttpShardChannel>(
        "127.0.0.1", server->port(), &client));
    servers.push_back(std::move(server));
  }
  CoordinatorOptions copts;
  copts.base_seed = kBaseSeed;
  Coordinator coord(std::move(channels), copts);

  // A subset keeps the loopback round-trip count reasonable; it spans
  // COUNT, AVG, chain, and MAX shapes.
  for (size_t i : {0u, 1u, 3u, 6u}) {
    QueryRequest req;
    req.query = workload[i];
    // Seeds derive from the coordinator's EXECUTION index, which differs
    // from i here; pin the workload seed instead.
    req.seed = QueryService::QuerySeed(kBaseSeed, i);
    QueryResponse resp = coord.Execute(req);
    ASSERT_EQ(resp.state, QueryState::kDone)
        << "query " << i << ": " << resp.status;
    EXPECT_FALSE(resp.degraded);
    ExpectResultsBitwiseEqual(resp.result, expected[i], i);
  }
  for (auto& node : shards.nodes) {
    EXPECT_EQ(node->live_plan_sessions(), 0u);
  }
  for (auto& server : servers) server->Stop();
}

// Shard snapshots round-trip the whole deployment: write per-shard v2
// snapshot files, reload them cold, and get the same bitwise answers.
TEST(ShardedEngineTest, ShardSnapshotsReloadAndMatchBitwise) {
  const auto& ds = MiniDataset();
  const auto workload = MixedWorkload();
  const auto& expected = UnshardedReference();

  KgPartitioner::Options popts;
  popts.num_shards = 2;
  std::vector<std::string> paths;
  ASSERT_TRUE(KgPartitioner::WriteShardSnapshots(
                  ds.graph(), &ds.reference_embedding(), popts,
                  TempPath("shard_rt"), &paths)
                  .ok());
  ASSERT_EQ(paths.size(), 2u);

  ShardedEngineOptions opts;
  opts.base_seed = kBaseSeed;
  auto engine = ShardedEngine::FromShardSnapshots(paths, opts);
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_EQ((*engine)->num_shards(), 2u);

  for (size_t i : {0u, 2u, 5u}) {
    QueryRequest req;
    req.query = workload[i];
    req.seed = QueryService::QuerySeed(kBaseSeed, i);
    QueryResponse resp = (*engine)->Execute(req);
    ASSERT_EQ(resp.state, QueryState::kDone) << resp.status;
    ExpectResultsBitwiseEqual(resp.result, expected[i], i);
  }
}

// A shard lost at PLAN time (first shard.rpc.send hit fails) shrinks
// coverage: the answer comes back kDone + degraded over the live
// shards, not an error, and nothing leaks.
TEST(CoordinatorFailureTest, PlanLossYieldsDegradedPartialAnswer) {
  FaultGuard guard;
  const auto& ds = MiniDataset();
  ShardedEngineOptions opts;
  opts.num_shards = 2;
  opts.base_seed = kBaseSeed;
  auto engine =
      ShardedEngine::Create(ds.graph(), ds.reference_embedding(), opts);
  ASSERT_TRUE(engine.ok()) << engine.status();

  fault_injection::Enable(7);
  fault_injection::ArmCount("shard.rpc.send", 1);

  QueryRequest req;
  req.query = MixedWorkload()[0];
  QueryResponse resp = (*engine)->Execute(req);
  EXPECT_GE(fault_injection::FailCount("shard.rpc.send"), 1u);
  ASSERT_EQ(resp.state, QueryState::kDone) << resp.status;
  EXPECT_TRUE(resp.status.ok());
  EXPECT_TRUE(resp.degraded);
  EXPECT_GE(resp.result.rounds, 1u);
  // A real (possibly zero-valued) estimate was built from actual draws
  // over the surviving shard's renormalized distribution.
  EXPECT_GT(resp.result.total_draws, 0u);

  const CoordinatorStats cs = (*engine)->coordinator().stats();
  EXPECT_EQ(cs.done, 1u);
  EXPECT_EQ(cs.degraded, 1u);
  EXPECT_EQ(cs.submitted, CoordinatorBuckets(cs));
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_EQ((*engine)->node(s).live_plan_sessions(), 0u);
  }
}

// A merge that finds the owned slices short of the global array fails
// the query with kInternal, and releases the plan session of every shard
// that planned — not only when the injected `shard.merge` fault fires.
TEST(CoordinatorFailureTest, MergeErrorReleasesEveryPlanSession) {
  const auto& ds = MiniDataset();
  ShardedEngineOptions opts;
  opts.num_shards = 2;
  opts.base_seed = kBaseSeed;
  opts.wrap_channel = [](std::unique_ptr<ShardChannel> ch, uint32_t shard,
                         uint32_t) -> std::unique_ptr<ShardChannel> {
    if (shard != 1) return ch;
    return std::make_unique<TruncatingPlanChannel>(std::move(ch));
  };
  auto engine =
      ShardedEngine::Create(ds.graph(), ds.reference_embedding(), opts);
  ASSERT_TRUE(engine.ok()) << engine.status();

  QueryRequest req;
  req.query = MixedWorkload()[0];
  QueryResponse resp = (*engine)->Execute(req);
  ASSERT_EQ(resp.state, QueryState::kFailed);
  EXPECT_EQ(resp.status.code(), StatusCode::kInternal);
  const uint64_t nc = UnshardedReference()[0].num_candidates;
  const std::string coverage = "owned slices cover " + std::to_string(nc - 1) +
                               " of " + std::to_string(nc);
  EXPECT_NE(resp.status.message().find(coverage), std::string::npos)
      << resp.status;

  const CoordinatorStats cs = (*engine)->coordinator().stats();
  EXPECT_EQ(cs.failed, 1u);
  EXPECT_EQ(cs.submitted, CoordinatorBuckets(cs));
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_EQ((*engine)->node(s).live_plan_sessions(), 0u)
        << "shard " << s << " leaked a plan session";
  }
}

// Every shard down: the query fails cleanly with kUnavailable — no
// hang, no crash, identity intact.
TEST(CoordinatorFailureTest, AllShardsDownFailsWithUnavailable) {
  FaultGuard guard;
  const auto& ds = MiniDataset();
  ShardedEngineOptions opts;
  opts.num_shards = 2;
  auto engine =
      ShardedEngine::Create(ds.graph(), ds.reference_embedding(), opts);
  ASSERT_TRUE(engine.ok()) << engine.status();

  fault_injection::Enable(7);
  fault_injection::Arm("shard.rpc.send", 1.0);

  QueryRequest req;
  req.query = MixedWorkload()[0];
  QueryResponse resp = (*engine)->Execute(req);
  ASSERT_EQ(resp.state, QueryState::kFailed);
  EXPECT_EQ(resp.status.code(), StatusCode::kUnavailable);

  const CoordinatorStats cs = (*engine)->coordinator().stats();
  EXPECT_EQ(cs.failed, 1u);
  EXPECT_EQ(cs.submitted, CoordinatorBuckets(cs));
}

// A shard that dies MID-RUN (validate starts failing after round 1)
// retires the replay session with StopCause::kShardLost: the completed
// round stands and the response is a degraded partial, per the PR 6
// degradation contract.
TEST(CoordinatorFailureTest, MidRunShardLossRetiresWithPartialEstimate) {
  ManualShards shards = BuildManualShards(2);
  std::vector<std::unique_ptr<ShardChannel>> channels;
  channels.push_back(std::make_unique<FlakyValidateChannel>(
      std::make_unique<LocalShardChannel>(shards.nodes[0].get()),
      /*fail_from=*/2));
  channels.push_back(
      std::make_unique<LocalShardChannel>(shards.nodes[1].get()));
  CoordinatorOptions copts;
  copts.base_seed = kBaseSeed;
  Coordinator coord(std::move(channels), copts);

  QueryRequest req;
  req.query = MixedWorkload()[0];
  req.error_bound = 1e-9;  // unreachable: runs to max_rounds if healthy
  req.max_rounds = 3;
  QueryResponse resp = coord.Execute(req);
  ASSERT_EQ(resp.state, QueryState::kDone) << resp.status;
  EXPECT_TRUE(resp.status.ok());
  EXPECT_TRUE(resp.degraded);
  EXPECT_EQ(resp.result.rounds, 1u);  // round 2 aborted at the boundary
  // The degraded contract: error_bound is rewritten to the ACHIEVED
  // relative bound of the partial estimate.
  ASSERT_GT(resp.result.v_hat, 0.0);
  EXPECT_EQ(resp.result.error_bound,
            resp.result.moe / resp.result.v_hat);

  const CoordinatorStats cs = coord.stats();
  EXPECT_EQ(cs.done, 1u);
  EXPECT_EQ(cs.degraded, 1u);
  for (auto& node : shards.nodes) {
    EXPECT_EQ(node->live_plan_sessions(), 0u);
  }
}

// Losing a shard before the FIRST round completes is the one shard-loss
// case that fails: a zero-round estimate would be vacuous.
TEST(CoordinatorFailureTest, FirstRoundShardLossFails) {
  ManualShards shards = BuildManualShards(2);
  std::vector<std::unique_ptr<ShardChannel>> channels;
  channels.push_back(std::make_unique<FlakyValidateChannel>(
      std::make_unique<LocalShardChannel>(shards.nodes[0].get()),
      /*fail_from=*/1));
  channels.push_back(
      std::make_unique<LocalShardChannel>(shards.nodes[1].get()));
  Coordinator coord(std::move(channels), {});

  QueryRequest req;
  req.query = MixedWorkload()[0];
  QueryResponse resp = coord.Execute(req);
  ASSERT_EQ(resp.state, QueryState::kFailed);
  EXPECT_EQ(resp.status.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(resp.degraded);
  for (auto& node : shards.nodes) {
    EXPECT_EQ(node->live_plan_sessions(), 0u);
  }
}

// Federated mode: COUNT sub-estimates over the ownership partition sum
// to (approximately) the global answer, candidate counts sum exactly,
// and every tier satisfies the accounting identity.
TEST(FederatedModeTest, CountCombinesAcrossShards) {
  const auto& ds = MiniDataset();
  const auto& expected = UnshardedReference();
  ShardedEngineOptions opts;
  opts.num_shards = 2;
  opts.mode = ShardMode::kFederated;
  opts.base_seed = kBaseSeed;
  auto engine =
      ShardedEngine::Create(ds.graph(), ds.reference_embedding(), opts);
  ASSERT_TRUE(engine.ok()) << engine.status();

  QueryRequest req;
  req.query = MixedWorkload()[0];  // COUNT
  QueryResponse resp = (*engine)->Execute(req);
  ASSERT_EQ(resp.state, QueryState::kDone) << resp.status;
  EXPECT_FALSE(resp.degraded);
  EXPECT_GE(resp.result.rounds, 1u);
  // Owned candidate sets partition the global candidate set exactly.
  EXPECT_EQ(resp.result.num_candidates, expected[0].num_candidates);
  // The sum of per-shard unbiased estimates tracks the global estimate;
  // both carry ~1% guarantees, so a wide tolerance is sufficient here.
  EXPECT_NEAR(resp.result.v_hat, expected[0].v_hat,
              0.25 * expected[0].v_hat + 1.0);
  EXPECT_GT(resp.result.moe, 0.0);

  const CoordinatorStats cs = (*engine)->coordinator().stats();
  EXPECT_EQ(cs.done, 1u);
  EXPECT_EQ(cs.submitted, CoordinatorBuckets(cs));
  for (size_t s = 0; s < 2; ++s) {
    // A ticket turns terminal (unblocking the combiner) slightly before
    // the service counters roll over; Drain() synchronizes with them.
    (*engine)->node(s).service().Drain();
    const auto ss = (*engine)->shard_stats()[s];
    EXPECT_EQ(ss.submitted, 1u) << "shard " << s;
    EXPECT_EQ(ss.submitted, ss.done + ss.failed + ss.cancelled +
                                ss.deadline_expired + ss.rejected + ss.shed);
  }
}

TEST(FederatedModeTest, AvgRunsTwoLegsPerShard) {
  const auto& ds = MiniDataset();
  const auto& expected = UnshardedReference();
  ShardedEngineOptions opts;
  opts.num_shards = 2;
  opts.mode = ShardMode::kFederated;
  opts.base_seed = kBaseSeed;
  auto engine =
      ShardedEngine::Create(ds.graph(), ds.reference_embedding(), opts);
  ASSERT_TRUE(engine.ok()) << engine.status();

  QueryRequest req;
  req.query = MixedWorkload()[1];  // AVG
  QueryResponse resp = (*engine)->Execute(req);
  ASSERT_EQ(resp.state, QueryState::kDone) << resp.status;
  EXPECT_NEAR(resp.result.v_hat, expected[1].v_hat,
              0.25 * std::abs(expected[1].v_hat) + 1.0);
  for (size_t s = 0; s < 2; ++s) {
    // The ratio estimator needs a SUM leg and a COUNT leg per shard.
    EXPECT_EQ((*engine)->shard_stats()[s].submitted, 2u) << "shard " << s;
  }
}

// A federated leg blocks on its shard's ticket, whose rounds run as
// GlobalPool() tasks. With more legs than pool workers, legs parked on
// pool workers would leave no worker for those rounds, and the query
// would hang.
TEST(FederatedModeTest, MoreLegsThanPoolWorkersCompletes) {
  const auto& ds = MiniDataset();
  const size_t workers = GlobalPool().num_threads();
  ShardedEngineOptions opts;
  opts.num_shards = workers / 2 + 1;  // AVG: two legs per shard
  opts.mode = ShardMode::kFederated;
  opts.base_seed = kBaseSeed;
  auto engine =
      ShardedEngine::Create(ds.graph(), ds.reference_embedding(), opts);
  ASSERT_TRUE(engine.ok()) << engine.status();

  QueryRequest req;
  req.query = MixedWorkload()[1];  // AVG
  QueryResponse resp = (*engine)->Execute(req);
  ASSERT_EQ(resp.state, QueryState::kDone) << resp.status;
  uint64_t legs = 0;
  for (const auto& ss : (*engine)->shard_stats()) legs += ss.submitted;
  EXPECT_GE(legs, workers + 1);
}

TEST(FederatedModeTest, MaxIsBestEffortWithoutGuarantee) {
  const auto& ds = MiniDataset();
  ShardedEngineOptions opts;
  opts.num_shards = 2;
  opts.mode = ShardMode::kFederated;
  auto engine =
      ShardedEngine::Create(ds.graph(), ds.reference_embedding(), opts);
  ASSERT_TRUE(engine.ok()) << engine.status();

  QueryRequest req;
  req.query = MixedWorkload()[6];  // MAX
  QueryResponse resp = (*engine)->Execute(req);
  ASSERT_EQ(resp.state, QueryState::kDone) << resp.status;
  EXPECT_EQ(resp.result.moe, 0.0);
  EXPECT_FALSE(resp.result.satisfied);
}

TEST(FederatedModeTest, AvgGroupByIsUnimplemented) {
  const auto& ds = MiniDataset();
  ShardedEngineOptions opts;
  opts.num_shards = 2;
  opts.mode = ShardMode::kFederated;
  auto engine =
      ShardedEngine::Create(ds.graph(), ds.reference_embedding(), opts);
  ASSERT_TRUE(engine.ok()) << engine.status();

  QueryRequest req;
  req.query = MixedWorkload()[1];  // AVG
  req.query.group_by.attribute = req.query.attribute;
  req.query.group_by.bucket_width = 10.0;
  QueryResponse resp = (*engine)->Execute(req);
  ASSERT_EQ(resp.state, QueryState::kFailed);
  EXPECT_EQ(resp.status.code(), StatusCode::kUnimplemented);
}

// The parity contract rides on the wire format round-tripping doubles
// bit-exactly; exercise awkward values end to end.
TEST(ShardWireTest, PlanResultRoundTripsBitExact) {
  ShardPlanResult res;
  res.token = 0xDEADBEEFCAFEULL;
  res.num_candidates = 12345;
  res.group_by_enabled = true;
  res.indices = {0, 7, 4096, 12344};
  res.nodes = {3, 1, 4, 1592653};
  res.probs = {0.1, 1.0 / 3.0, 1e-300, 123456.789};

  auto rt = DecodePlanResult(EncodePlanResult(res));
  ASSERT_TRUE(rt.ok()) << rt.status();
  EXPECT_EQ(rt->token, res.token);
  EXPECT_EQ(rt->num_candidates, res.num_candidates);
  EXPECT_EQ(rt->group_by_enabled, res.group_by_enabled);
  EXPECT_EQ(rt->indices, res.indices);
  EXPECT_EQ(rt->nodes, res.nodes);
  ASSERT_EQ(rt->probs.size(), res.probs.size());
  for (size_t i = 0; i < res.probs.size(); ++i) {
    EXPECT_EQ(rt->probs[i], res.probs[i]) << "prob " << i;
  }
}

TEST(ShardWireTest, ValidateAndOutcomesRoundTrip) {
  ShardValidateRequest req;
  req.token = 42;
  req.indices = {5, 5, 0, 99999};
  auto rt = DecodeValidateRequest(EncodeValidateRequest(req));
  ASSERT_TRUE(rt.ok()) << rt.status();
  EXPECT_EQ(rt->token, req.token);
  EXPECT_EQ(rt->indices, req.indices);

  std::vector<NodeOutcome> outcomes = {
      {true, 0.1, -7}, {false, 0.0, 0}, {true, 1e308, 123456789}};
  auto ort = DecodeOutcomes(EncodeOutcomes(outcomes));
  ASSERT_TRUE(ort.ok()) << ort.status();
  ASSERT_EQ(ort->size(), outcomes.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ((*ort)[i].correct, outcomes[i].correct);
    EXPECT_EQ((*ort)[i].value, outcomes[i].value);
    EXPECT_EQ((*ort)[i].group_key, outcomes[i].group_key);
  }
}

TEST(ShardWireTest, QueryRequestAndResponseRoundTrip) {
  QueryRequest req;
  req.query = MixedWorkload()[2];
  req.error_bound = 0.005;
  req.seed = 0xABCDEF01ULL;
  req.max_rounds = 17;
  req.deadline_ms = 123.456;
  auto rreq = DecodeQueryRequest(EncodeQueryRequest(req));
  ASSERT_TRUE(rreq.ok()) << rreq.status();
  EXPECT_EQ(FormatAggregateQuery(rreq->query),
            FormatAggregateQuery(req.query));
  EXPECT_EQ(rreq->error_bound, req.error_bound);
  EXPECT_FALSE(rreq->confidence_level.has_value());
  EXPECT_EQ(rreq->seed, req.seed);
  EXPECT_EQ(rreq->max_rounds, req.max_rounds);
  EXPECT_EQ(rreq->deadline_ms, req.deadline_ms);

  QueryResponse resp;
  resp.id = 9;
  resp.state = QueryState::kDeadlineExceeded;
  resp.seed_used = 77;
  resp.degraded = true;
  resp.result.v_hat = 1.0 / 7.0;
  resp.result.moe = 0.00123;
  resp.result.satisfied = false;
  resp.result.rounds = 4;
  resp.result.total_draws = 1000;
  resp.result.correct_draws = 321;
  resp.result.num_candidates = 5000;
  resp.result.groups.push_back({10.0, 2.5, 0.25, 12, true});
  auto rresp = DecodeQueryResponse(EncodeQueryResponse(resp));
  ASSERT_TRUE(rresp.ok()) << rresp.status();
  EXPECT_EQ(rresp->id, resp.id);
  EXPECT_EQ(rresp->state, resp.state);
  EXPECT_EQ(rresp->seed_used, resp.seed_used);
  EXPECT_EQ(rresp->degraded, resp.degraded);
  ExpectResultsBitwiseEqual(rresp->result, resp.result, 0);

  Status err = Status::Unavailable("shard 3 went away mid round");
  Status rerr = DecodeError(EncodeError(err));
  EXPECT_EQ(rerr.code(), err.code());
  EXPECT_EQ(rerr.message(), err.message());
}

// Wire integers are unsigned decimals. A value that does not fit its
// field is rejected, never narrowed: n_hops would decode as -1,
// repeat_factor as 0, and the node id as node 1.
TEST(ShardWireTest, OutOfRangeIntegersAreRejected) {
  ShardPlanRequest plan_request;
  plan_request.query = MixedWorkload()[3];
  const std::string plan_body = EncodePlanRequest(plan_request);
  ASSERT_TRUE(DecodePlanRequest(plan_body).ok());
  for (const std::string line : {"o.branch.n_hops=18446744073709551615\n",
                                 "o.branch.repeat_factor=4294967296\n"}) {
    auto decoded = DecodePlanRequest(plan_body + line);
    ASSERT_FALSE(decoded.ok()) << line;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument) << line;
  }

  const std::string plan_head = "token=1\nnc=1\ngroup_by=0\ncount=1\n";
  auto widest = DecodePlanResult(plan_head + "c=0 4294967295 0.5\n");
  ASSERT_TRUE(widest.ok()) << widest.status();
  EXPECT_EQ(widest->nodes, std::vector<NodeId>{4294967295u});
  auto too_wide = DecodePlanResult(plan_head + "c=0 4294967297 0.5\n");
  ASSERT_FALSE(too_wide.ok());
  EXPECT_EQ(too_wide.status().code(), StatusCode::kInvalidArgument);
}

// Decodes one (possibly mutated) body. A decoder either rejects it with
// kInvalidArgument or accepts it, and an accepted value must survive a
// re-encode: its canonical body decodes again and re-encodes to itself.
// Returns whether the body decoded.
template <typename Decode, typename Encode>
bool DecodesOrRejectsCleanly(const std::string& body, Decode decode,
                             Encode encode) {
  auto decoded = decode(body);
  if (!decoded.ok()) {
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
        << decoded.status() << "\n  body: " << body;
    return false;
  }
  const std::string canonical = encode(*decoded);
  auto again = decode(canonical);
  EXPECT_TRUE(again.ok()) << again.status() << "\n  body: " << canonical;
  if (again.ok()) {
    EXPECT_EQ(encode(*again), canonical) << "body: " << body;
  }
  return true;
}

// Shard wire bodies arrive from the network, so a seeded sweep of
// deletions, insertions, replacements and truncations over every
// encoder's output must never crash a decoder (the sanitize job runs
// this under ASan/UBSan) and must keep each decoder's contract.
TEST(ShardWireTest, MutatedBodiesNeverCrash) {
  ShardPlanRequest plan_request;
  plan_request.query = MixedWorkload()[3];
  plan_request.options.seed = 0xABCDEF01ULL;
  ShardPlanResult plan_result;
  plan_result.token = 77;
  plan_result.num_candidates = 4096;
  plan_result.group_by_enabled = true;
  plan_result.indices = {0, 7, 4095};
  plan_result.nodes = {3, 1, 1592653};
  plan_result.probs = {0.1, 1.0 / 3.0, 1e-300};
  ShardValidateRequest validate_request;
  validate_request.token = 42;
  validate_request.indices = {5, 5, 0, 99999};
  const std::vector<NodeOutcome> outcomes = {
      {true, 0.1, -7}, {false, 0.0, 0}, {true, 1e308, 123456789}};
  QueryRequest query_request;
  query_request.query = MixedWorkload()[2];
  query_request.error_bound = 0.005;
  query_request.seed = 17;
  query_request.max_rounds = 9;
  query_request.deadline_ms = 123.456;
  QueryResponse query_response;
  query_response.id = 9;
  query_response.state = QueryState::kDone;
  query_response.status = Status::Unavailable("partial");
  query_response.result.v_hat = 1.0 / 7.0;
  query_response.result.moe = 0.00123;
  query_response.result.rounds = 4;
  query_response.result.groups.push_back({10.0, 2.5, 0.25, 12, true});

  using Check = std::function<bool(const std::string&)>;
  const auto plan_result_check = [](const std::string& body) {
    auto decoded = DecodePlanResult(body);
    if (decoded.ok()) {
      EXPECT_EQ(decoded->nodes.size(), decoded->indices.size()) << body;
      EXPECT_EQ(decoded->probs.size(), decoded->indices.size()) << body;
    }
    return DecodesOrRejectsCleanly(body, DecodePlanResult, EncodePlanResult);
  };
  const std::vector<std::pair<std::string, Check>> codecs = {
      {EncodePlanRequest(plan_request),
       [](const std::string& b) {
         return DecodesOrRejectsCleanly(b, DecodePlanRequest,
                                        EncodePlanRequest);
       }},
      {EncodePlanResult(plan_result), plan_result_check},
      {EncodeValidateRequest(validate_request),
       [](const std::string& b) {
         return DecodesOrRejectsCleanly(b, DecodeValidateRequest,
                                        EncodeValidateRequest);
       }},
      {EncodeOutcomes(outcomes),
       [](const std::string& b) {
         return DecodesOrRejectsCleanly(
             b, DecodeOutcomes, [](const std::vector<NodeOutcome>& o) {
               return EncodeOutcomes(o);
             });
       }},
      {EncodeQueryRequest(query_request),
       [](const std::string& b) {
         return DecodesOrRejectsCleanly(b, DecodeQueryRequest,
                                        EncodeQueryRequest);
       }},
      {EncodeQueryResponse(query_response),
       [](const std::string& b) {
         return DecodesOrRejectsCleanly(b, DecodeQueryResponse,
                                        EncodeQueryResponse);
       }},
      {EncodeError(Status::Unavailable("shard 3 went away")),
       [](const std::string& b) {
         EXPECT_FALSE(DecodeError(b).ok()) << b;  // an error body never
         return false;                            // decodes to success
       }},
  };

  Rng rng(20261018);
  const char alphabet[] = "0123456789=\n .-+eExcoignatfkr";
  for (size_t k = 0; k < codecs.size(); ++k) {
    const auto& [original, check] = codecs[k];
    ASSERT_EQ(check(original), k + 1 != codecs.size()) << original;
    size_t accepted = 0;
    constexpr size_t kIterations = 3000;
    for (size_t iter = 0; iter < kIterations; ++iter) {
      std::string s = original;
      const size_t edits = 1 + rng.NextBounded(4);
      for (size_t e = 0; e < edits && !s.empty(); ++e) {
        const size_t pos = rng.NextBounded(s.size());
        const char c = alphabet[rng.NextBounded(sizeof(alphabet) - 1)];
        switch (rng.NextBounded(4)) {
          case 0:
            s.erase(pos, 1 + rng.NextBounded(3));
            break;
          case 1:
            s.insert(pos, 1, c);
            break;
          case 2:
            s[pos] = c;
            break;
          case 3:
            s.resize(pos);
            break;
        }
      }
      accepted += check(s);
    }
    // Both outcomes must occur for the sweep to mean anything (the error
    // envelope has no accepting outcome).
    if (k + 1 != codecs.size()) {
      EXPECT_GT(accepted, 0u) << "codec " << k;
      EXPECT_LT(accepted, kIterations) << "codec " << k;
    }
  }
}

// Stops a REAL loopback server at the `kill_at`-th validate call
// (1-based, cumulative). Two flavors: `forward_after_kill` pushes the
// doomed RPC through the inner HttpShardChannel so the failure is a
// genuine transport error against a dead socket; the non-forwarding
// flavor fails locally instead, which leaves the pooled keep-alive
// connection idle-open so the breaker-open -> OnQuarantined ->
// EvictHost chain has a live socket to find and close.
class ServerKillingChannel final : public ShardChannel {
 public:
  ServerKillingChannel(std::unique_ptr<ShardChannel> inner,
                       HttpServer* server, int kill_at,
                       bool forward_after_kill)
      : inner_(std::move(inner)),
        server_(server),
        kill_at_(kill_at),
        forward_(forward_after_kill) {}

  Result<ShardPlanResult> Plan(const ShardPlanRequest& request) override {
    return inner_->Plan(request);
  }
  Result<std::vector<NodeOutcome>> Validate(
      const ShardValidateRequest& request) override {
    if (calls_.fetch_add(1) + 1 >= kill_at_) {
      if (!killed_.exchange(true)) server_->Stop();
      if (!forward_) return Status::Unavailable("server stopped by test");
    }
    return inner_->Validate(request);
  }
  Status Release(uint64_t token) override { return inner_->Release(token); }
  Result<QueryResponse> SubQuery(const QueryRequest& request) override {
    return inner_->SubQuery(request);
  }
  Status Probe() override { return inner_->Probe(); }
  void OnQuarantined() override { inner_->OnQuarantined(); }

 private:
  std::unique_ptr<ShardChannel> inner_;
  HttpServer* server_;
  int kill_at_;
  bool forward_;
  std::atomic<int> calls_{0};
  std::atomic<bool> killed_{false};
};

// kShardLost over REAL HTTP: an unreplicated shard's server process
// dies between rounds, the validate POST fails against the dead socket
// (reused-connection kUnavailable, reconnect refused), and the
// coordinator retires the run exactly like the in-process FlakyValidate
// version — degraded kDone with the completed round standing. The
// transport changes the failure mechanics, not the contract.
TEST(CoordinatorFailureTest, MidRunServerDeathOverHttpRetiresPartial) {
  ManualShards shards = BuildManualShards(2);
  std::vector<std::unique_ptr<HttpServer>> servers;
  for (auto& node : shards.nodes) {
    auto server = std::make_unique<HttpServer>(node->service());
    server->SetExtraHandler(MakeShardHttpHandler(*node));
    ASSERT_TRUE(server->Start().ok());
    servers.push_back(std::move(server));
  }
  RetryOptions ropts;
  ropts.max_attempts = 2;
  ropts.initial_backoff_ms = 1.0;
  ropts.max_backoff_ms = 5.0;
  RetryingHttpClient client(ropts);

  std::vector<std::unique_ptr<ShardChannel>> channels;
  channels.push_back(std::make_unique<ServerKillingChannel>(
      std::make_unique<HttpShardChannel>("127.0.0.1", servers[0]->port(),
                                         &client),
      servers[0].get(), /*kill_at=*/2, /*forward_after_kill=*/true));
  channels.push_back(std::make_unique<HttpShardChannel>(
      "127.0.0.1", servers[1]->port(), &client));
  CoordinatorOptions copts;
  copts.base_seed = kBaseSeed;
  Coordinator coord(std::move(channels), copts);

  QueryRequest req;
  req.query = MixedWorkload()[0];
  req.error_bound = 1e-9;  // unreachable: runs to max_rounds if healthy
  req.max_rounds = 3;
  QueryResponse resp = coord.Execute(req);
  ASSERT_EQ(resp.state, QueryState::kDone) << resp.status;
  EXPECT_TRUE(resp.status.ok());
  EXPECT_TRUE(resp.degraded);
  EXPECT_EQ(resp.result.rounds, 1u);

  const CoordinatorStats cs = coord.stats();
  EXPECT_EQ(cs.done, 1u);
  EXPECT_EQ(cs.degraded, 1u);
  EXPECT_EQ(cs.submitted, CoordinatorBuckets(cs));
  // Only the SURVIVING node is leak-gated: the dead shard's release RPC
  // went down with its server, so its session is stranded — exactly
  // what a real process death leaves behind.
  EXPECT_EQ(shards.nodes[1]->live_plan_sessions(), 0u);
  for (auto& server : servers) server->Stop();
}

// The tentpole, end to end over real sockets: each shard is a
// ShardReplicaSet over two HttpShardChannels to two ShardNodes sharing
// one snapshot. One replica's server dies mid-workload; the set opens
// its breaker (threshold 1), quarantine evicts the dead host's pooled
// sockets, validates fail over to the surviving replica — and every
// answer stays bitwise-identical to the flat engine with degraded
// false. Replication hides the loss completely.
TEST(ReplicatedHttpTest, ReplicaDeathFailsOverBitwiseAndEvictsPool) {
  const auto workload = MixedWorkload();
  const auto& expected = UnshardedReference();
  const auto& ds = MiniDataset();
  KgPartitioner::Options popts;
  popts.num_shards = 2;
  auto cuts = KgPartitioner::Partition(ds.graph(), popts);
  ASSERT_TRUE(cuts.ok()) << cuts.status();

  std::vector<std::shared_ptr<const EngineContext>> contexts;
  std::vector<std::unique_ptr<ShardNode>> nodes;  // shard-major: s*2 + r
  std::vector<std::unique_ptr<HttpServer>> servers;
  RetryOptions ropts;
  ropts.max_attempts = 2;
  ropts.initial_backoff_ms = 1.0;
  ropts.max_backoff_ms = 5.0;
  RetryingHttpClient client(ropts);

  std::vector<std::unique_ptr<ShardChannel>> channels;
  for (uint32_t s = 0; s < 2; ++s) {
    contexts.push_back(std::make_shared<EngineContext>(
        (*cuts)[s].graph, ds.reference_embedding()));
    std::vector<std::unique_ptr<ShardChannel>> members;
    for (uint32_t r = 0; r < 2; ++r) {
      auto node = ShardNode::Create(contexts.back(), (*cuts)[s].info,
                                    ServiceOptions{});
      ASSERT_TRUE(node.ok()) << node.status();
      auto server = std::make_unique<HttpServer>((*node)->service());
      server->SetExtraHandler(MakeShardHttpHandler(**node));
      ASSERT_TRUE(server->Start().ok());
      std::unique_ptr<ShardChannel> ch = std::make_unique<HttpShardChannel>(
          "127.0.0.1", server->port(), &client);
      if (s == 0 && r == 0) {
        ch = std::make_unique<ServerKillingChannel>(
            std::move(ch), server.get(), /*kill_at=*/2,
            /*forward_after_kill=*/false);
      }
      members.push_back(std::move(ch));
      nodes.push_back(std::move(*node));
      servers.push_back(std::move(server));
    }
    ReplicaSetOptions rsopts;
    rsopts.breaker.failure_threshold = 1;  // one strike quarantines
    rsopts.breaker.open_cooldown_ms = 60000.0;  // no failback this test
    channels.push_back(
        std::make_unique<ShardReplicaSet>(std::move(members), rsopts));
  }
  CoordinatorOptions copts;
  copts.base_seed = kBaseSeed;
  Coordinator coord(std::move(channels), copts);

  for (size_t i : {0u, 1u, 3u, 6u}) {
    QueryRequest req;
    req.query = workload[i];
    req.seed = QueryService::QuerySeed(kBaseSeed, i);
    QueryResponse resp = coord.Execute(req);
    ASSERT_EQ(resp.state, QueryState::kDone)
        << "query " << i << ": " << resp.status;
    // The whole point: a mid-workload replica death is INVISIBLE — not
    // even degraded, because the survivor replays the identical session.
    EXPECT_FALSE(resp.degraded) << "query " << i;
    ExpectResultsBitwiseEqual(resp.result, expected[i], i);
  }

  const auto health = coord.channel_health();
  ASSERT_EQ(health.size(), 2u);
  EXPECT_GE(health[0].failovers, 1u);
  EXPECT_GE(health[0].breaker_opens, 1u);
  EXPECT_EQ(health[0].healthy, 1u);  // replica 0 quarantined
  EXPECT_EQ(health[1].healthy, 2u);
  // Quarantine evicted the dead host's pooled keep-alive sockets.
  EXPECT_GE(client.stats().evictions, 1u);
  // Leak gate on every node except the one behind the killed server
  // (its release RPC died with the socket, like a real process death).
  for (size_t k = 1; k < nodes.size(); ++k) {
    EXPECT_EQ(nodes[k]->live_plan_sessions(), 0u) << "node " << k;
  }
  for (auto& server : servers) server->Stop();
}

}  // namespace
}  // namespace kgaq
