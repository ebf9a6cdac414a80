// Shard-parity smoke: the CI gate for the scatter-gather tier.
//
//   1. generate the bench KG + planted embedding,
//   2. answer a mixed workload on a flat (unsharded) QueryService,
//   3. answer the SAME workload through an N-shard ShardedEngine in
//      deterministic-merge mode with the same base seed, once with one
//      replica per shard and once with two (replica sets),
//   4. fail (exit 1) unless, in both passes, every answer is
//      bitwise-identical — v_hat, moe, draw counts, rounds, per-group
//      estimates — the accounting identity holds at the coordinator and
//      on every node, no node keeps a plan session, and no replica plan
//      diverged,
//   5. print per-mode wall-clock so scaling regressions are visible in
//      the CI log, and run the federated mode once as a smoke (its
//      combined estimates are NOT bitwise-comparable by design).
//
// Run by the `shard-parity` CI job at --shards=2 and --shards=4.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "common/timer.h"
#include "core/engine_context.h"
#include "datagen/kg_generator.h"
#include "datagen/workload_generator.h"
#include "serve/query_service.h"
#include "shard/sharded_engine.h"

using namespace kgaq;

namespace {

std::vector<AggregateQuery> BuildWorkload(const GeneratedDataset& ds) {
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

bool BitwiseEqual(const AggregateResult& a, const AggregateResult& b,
                  size_t index) {
  bool ok = a.v_hat == b.v_hat && a.moe == b.moe &&
            a.satisfied == b.satisfied && a.rounds == b.rounds &&
            a.total_draws == b.total_draws &&
            a.correct_draws == b.correct_draws &&
            a.num_candidates == b.num_candidates &&
            a.groups.size() == b.groups.size();
  for (size_t g = 0; ok && g < a.groups.size(); ++g) {
    ok = a.groups[g].bucket_lower == b.groups[g].bucket_lower &&
         a.groups[g].v_hat == b.groups[g].v_hat &&
         a.groups[g].moe == b.groups[g].moe;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "PARITY VIOLATION query %zu: sharded v=%.17g moe=%.17g "
                 "rounds=%zu draws=%zu vs flat v=%.17g moe=%.17g "
                 "rounds=%zu draws=%zu\n",
                 index, a.v_hat, a.moe, a.rounds, a.total_draws, b.v_hat,
                 b.moe, b.rounds, b.total_draws);
  }
  return ok;
}

bool IdentityHolds(uint64_t submitted, uint64_t done, uint64_t failed,
                   uint64_t cancelled, uint64_t deadline, uint64_t rejected,
                   uint64_t shed, const char* tier) {
  const uint64_t buckets =
      done + failed + cancelled + deadline + rejected + shed;
  if (submitted != buckets) {
    std::fprintf(stderr,
                 "ACCOUNTING VIOLATION (%s): submitted=%llu buckets=%llu\n",
                 tier, static_cast<unsigned long long>(submitted),
                 static_cast<unsigned long long>(buckets));
    return false;
  }
  return true;
}

// One deterministic-merge pass over `shards` x `replicas` nodes, held to
// every gate in the header comment. Stores the pass's wall-clock in *ms.
bool DeterministicPass(const GeneratedDataset& ds,
                       const std::vector<AggregateQuery>& workload,
                       const std::vector<Result<AggregateResult>>& flat,
                       uint32_t shards, uint32_t replicas, uint64_t seed,
                       double* ms) {
  ShardedEngineOptions shopts;
  shopts.num_shards = shards;
  shopts.replicas_per_shard = replicas;
  shopts.base_seed = seed;
  auto engine =
      ShardedEngine::Create(ds.graph(), ds.reference_embedding(), shopts);
  if (!engine.ok()) {
    std::fprintf(stderr, "sharded engine build failed: %s\n",
                 engine.status().ToString().c_str());
    return false;
  }

  bool ok = true;
  WallTimer shard_timer;
  for (size_t i = 0; i < workload.size(); ++i) {
    QueryRequest req;
    req.query = workload[i];
    QueryResponse resp = (*engine)->Execute(req);
    if (resp.state != QueryState::kDone || resp.degraded) {
      std::fprintf(stderr, "sharded query %zu not clean: state=%s%s %s\n",
                   i, QueryStateToString(resp.state),
                   resp.degraded ? " (degraded)" : "",
                   resp.status.ToString().c_str());
      ok = false;
      continue;
    }
    ok = BitwiseEqual(resp.result, *flat[i], i) && ok;
  }
  *ms = shard_timer.ElapsedMillis();

  const CoordinatorStats cs = (*engine)->coordinator().stats();
  ok = IdentityHolds(cs.submitted, cs.done, cs.failed, cs.cancelled,
                     cs.deadline_expired, cs.rejected, cs.shed,
                     "coordinator") &&
       ok;
  if (cs.submitted != workload.size()) {
    std::fprintf(stderr, "coordinator lost track: submitted=%llu sent=%zu\n",
                 static_cast<unsigned long long>(cs.submitted),
                 workload.size());
    ok = false;
  }
  for (size_t s = 0; s < (*engine)->num_shards(); ++s) {
    for (size_t r = 0; r < (*engine)->num_replicas(s); ++r) {
      ShardNode& node = (*engine)->node(s, r);
      node.service().Drain();
      const auto ss = node.service_stats();
      char tier[64];
      std::snprintf(tier, sizeof(tier), "shard %zu replica %zu", s, r);
      ok = IdentityHolds(ss.submitted, ss.done, ss.failed, ss.cancelled,
                         ss.deadline_expired, ss.rejected, ss.shed, tier) &&
           ok;
      if (node.live_plan_sessions() != 0) {
        std::fprintf(stderr, "LEAK: %s holds %zu plan sessions\n", tier,
                     node.live_plan_sessions());
        ok = false;
      }
    }
  }
  for (const ChannelHealth& h : (*engine)->coordinator().channel_health()) {
    if (h.divergent_plans != 0) {
      std::fprintf(stderr, "DIVERGENCE: %llu replica plans differ\n",
                   static_cast<unsigned long long>(h.divergent_plans));
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  uint32_t shards = 2;
  uint64_t seed = 321;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shards = static_cast<uint32_t>(std::atoi(argv[i] + 9));
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: %s [--shards=N] [--seed=N]\n", argv[0]);
      return 2;
    }
  }
  if (shards < 1) {
    std::fprintf(stderr, "--shards must be >= 1\n");
    return 2;
  }

  auto generated = KgGenerator::Generate(DatasetProfile::Mini(7));
  if (!generated.ok()) {
    std::fprintf(stderr, "dataset generation failed: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }
  const GeneratedDataset& ds = *generated;
  const auto workload = BuildWorkload(ds);

  // Flat reference: one QueryService over the whole graph.
  ServiceOptions sopts;
  sopts.base_seed = seed;
  auto ctx = std::make_shared<EngineContext>(ds.graph(),
                                             ds.reference_embedding());
  WallTimer flat_timer;
  auto flat = QueryService::RunBatch(ctx, workload, sopts);
  const double flat_ms = flat_timer.ElapsedMillis();
  for (size_t i = 0; i < flat.size(); ++i) {
    if (!flat[i].ok()) {
      std::fprintf(stderr, "flat query %zu failed: %s\n", i,
                   flat[i].status().ToString().c_str());
      return 1;
    }
  }

  // The same workload through the sharded deployment, unreplicated and
  // with two replicas per shard.
  double shard_ms = 0.0;
  double replicated_ms = 0.0;
  bool ok = DeterministicPass(ds, workload, flat, shards, /*replicas=*/1,
                              seed, &shard_ms);
  ok = DeterministicPass(ds, workload, flat, shards, /*replicas=*/2, seed,
                         &replicated_ms) &&
       ok;

  // Federated smoke: one COUNT through the one-round-trip mode. Its
  // combined estimate is a different estimator (docs/sharding.md), so
  // only clean completion is checked here.
  ShardedEngineOptions fopts;
  fopts.num_shards = shards;
  fopts.base_seed = seed;
  fopts.mode = ShardMode::kFederated;
  auto fed =
      ShardedEngine::Create(ds.graph(), ds.reference_embedding(), fopts);
  double fed_ms = 0.0;
  if (!fed.ok()) {
    std::fprintf(stderr, "federated engine build failed: %s\n",
                 fed.status().ToString().c_str());
    ok = false;
  } else {
    QueryRequest req;
    req.query = workload[0];
    WallTimer fed_timer;
    QueryResponse resp = (*fed)->Execute(req);
    fed_ms = fed_timer.ElapsedMillis();
    if (resp.state != QueryState::kDone) {
      std::fprintf(stderr, "federated query failed: %s\n",
                   resp.status.ToString().c_str());
      ok = false;
    }
  }

  std::printf(
      "shard smoke: %zu queries, %u shards | flat %.1f ms, "
      "deterministic-merge %.1f ms (%.2fx), 2 replicas/shard %.1f ms, "
      "federated single COUNT %.1f ms\n",
      workload.size(), shards, flat_ms, shard_ms, shard_ms / flat_ms,
      replicated_ms, fed_ms);
  if (!ok) {
    std::fprintf(stderr, "shard smoke FAILED\n");
    return 1;
  }
  std::printf(
      "shard smoke passed: %u-shard answers bitwise-identical to "
      "unsharded with 1 and 2 replicas per shard, accounting identity "
      "holds\n",
      shards);
  return 0;
}
