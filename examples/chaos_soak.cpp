// Chaos soak for the overload-safe serving stack, run by CI under
// Debug + ASan:
//
//   1. generate a small synthetic KG + planted embedding,
//   2. stand up a bounded QueryService behind the HTTP front-end,
//   3. enable deterministic fault injection (p = 0.05 on admission,
//      round execution, server reads, client reads, and event-loop
//      wakeup delivery),
//   4. hammer it with mixed traffic — plain queries, tight deadlines,
//      cancels, stats/healthz probes — through the retrying client
//      (pooled keep-alive connections, so the soak also covers reuse,
//      server-side idle reaps, and the stale-connection resend path) for
//      --seconds wall-clock seconds,
//   5. verify at the end that every submission is accounted for in
//      exactly one terminal bucket and nothing crashed, hung, or leaked,
//   6. then run a REPLICATED 2-shard x 2-replica engine through a
//      deterministic seeded kill/restart schedule (fault injection off;
//      the chaos is replica death via KillSwitchChannel, never more than
//      one dead replica per shard at a time) and hold it to the
//      replication bar: zero failures, zero degraded answers, and every
//      result bitwise-identical to the flat engine — replica loss that
//      replication can absorb must be invisible. Whole-set loss must
//      degrade gracefully, no replica plan may diverge or leak, and
//      /stats must surface the shard tier.
//
// Exits non-zero on any accounting violation, making it a cheap
// robustness gate: with ASan underneath, "the identity holds and the
// process is still alive" covers a lot of failure modes.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/timer.h"
#include "core/engine_context.h"
#include "datagen/kg_generator.h"
#include "datagen/workload_generator.h"
#include "query/query_text.h"
#include "serve/http_client.h"
#include "serve/http_server.h"
#include "serve/query_service.h"
#include "shard/coordinator.h"
#include "shard/replica_set.h"
#include "shard/sharded_engine.h"

using namespace kgaq;

int main(int argc, char** argv) {
  double seconds = 10.0;
  uint64_t seed = 2024;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seconds=", 10) == 0) {
      seconds = std::atof(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seconds=N] [--seed=N]\n", argv[0]);
      return 2;
    }
  }

  auto generated = KgGenerator::Generate(DatasetProfile::Mini(7));
  if (!generated.ok()) {
    std::fprintf(stderr, "dataset generation failed: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }
  const GeneratedDataset& ds = *generated;
  auto ctx = std::make_shared<EngineContext>(ds.graph(),
                                             ds.reference_embedding());

  ServiceOptions sopts;
  sopts.base_seed = seed;
  sopts.max_concurrent = 4;
  sopts.max_queue_depth = 8;
  sopts.max_queue_wait_ms = 250.0;
  sopts.engine.fixed_increment = 2000;
  sopts.engine.max_total_draws = static_cast<size_t>(1) << 40;
  QueryService service(ctx, sopts);
  HttpServer server(service);
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // A 2-shard in-process deployment soaked alongside the flat service:
  // with shard.rpc.send / shard.merge armed, every coordinator query
  // rehearses plan loss, mid-run shard loss and merge failure, and the
  // end-of-run identity proves each one landed in exactly one bucket.
  ShardedEngineOptions shard_opts;
  shard_opts.num_shards = 2;
  shard_opts.base_seed = seed ^ 0x51A2DULL;
  shard_opts.service.engine = sopts.engine;
  auto sharded =
      ShardedEngine::Create(ds.graph(), ds.reference_embedding(), shard_opts);
  if (!sharded.ok()) {
    std::fprintf(stderr, "sharded engine build failed: %s\n",
                 sharded.status().ToString().c_str());
    return 1;
  }

  fault_injection::Enable(seed);
  fault_injection::Arm("shard.rpc.send", 0.05);
  fault_injection::Arm("shard.merge", 0.05);
  fault_injection::Arm("serve.admit.queue_full", 0.05);
  fault_injection::Arm("serve.round.slow", 0.05);
  fault_injection::Arm("http.conn.read_error", 0.05);
  fault_injection::Arm("http.client.recv_error", 0.05);
  // Dropped event-loop wakeups: level-triggered pollers re-deliver the
  // undrained wakeup fd next tick, so these delay work but cannot lose
  // it — the identity below is the proof.
  fault_injection::Arm("serve.loop.wakeup", 0.05);

  RetryOptions ropts;
  ropts.max_attempts = 3;
  ropts.initial_backoff_ms = 5.0;
  ropts.max_backoff_ms = 200.0;
  ropts.seed = seed ^ 0xD1CEULL;
  RetryingHttpClient client(ropts);

  std::vector<AggregateQuery> queries;
  queries.push_back(
      WorkloadGenerator::SimpleQuery(ds, 0, 0, AggregateFunction::kCount));
  queries.push_back(
      WorkloadGenerator::SimpleQuery(ds, 1, 0, AggregateFunction::kAvg));
  queries.push_back(
      WorkloadGenerator::ChainQuery(ds, 0, 0, AggregateFunction::kAvg));
  queries.push_back(
      WorkloadGenerator::SimpleQuery(ds, 2, 1, AggregateFunction::kSum));
  std::vector<std::string> texts;
  for (const AggregateQuery& q : queries) {
    texts.push_back(FormatAggregateQuery(q));
  }

  WallTimer clock;
  uint64_t sent = 0, accepted = 0, rejected_http = 0, transport_errors = 0;
  uint64_t probes = 0, shard_queries = 0;
  std::vector<std::string> open_ids;
  while (clock.ElapsedMillis() < seconds * 1000.0) {
    const uint64_t turn = sent++;
    std::string target = "/query";
    switch (turn % 5) {
      case 1:
        target += "?eb=1e-9&max_rounds=1000000&deadline_ms=25";
        break;
      case 3:
        // Cancelled below; the deadline is a backstop so a cancel lost
        // to an injected read error cannot wedge the final Drain().
        target += "?eb=1e-9&max_rounds=1000000&deadline_ms=3000";
        break;
      default:
        break;  // run to completion with default bounds
    }
    auto resp = client.Fetch("127.0.0.1", server.port(), "POST", target,
                             texts[turn % texts.size()]);
    if (!resp.ok()) {
      // A POST whose read died is indeterminate by design; the server
      // side still accounts for whatever actually arrived.
      ++transport_errors;
    } else if (resp->status_code == 202) {
      ++accepted;
      const std::string id = ExtractJsonField(resp->body, "id");
      if (turn % 5 == 3 && !id.empty()) {
        (void)client.Fetch("127.0.0.1", server.port(), "POST",
                           "/cancel/" + id);
      } else if (!id.empty()) {
        open_ids.push_back(id);
      }
    } else if (resp->status_code == 429 || resp->status_code == 503) {
      ++rejected_http;
    }
    if (turn % 7 == 0) {
      ++probes;
      (void)client.Fetch("127.0.0.1", server.port(), "GET",
                         turn % 14 == 0 ? "/healthz" : "/stats");
    }
    // Poll a few open tickets so the result path sees fault traffic too.
    if (turn % 11 == 0 && !open_ids.empty()) {
      (void)client.Fetch("127.0.0.1", server.port(), "GET",
                         "/result/" + open_ids[turn % open_ids.size()]);
    }
    // Sharded traffic: one coordinator query every few turns, with the
    // occasional tight deadline, under the armed shard fault points.
    if (turn % 4 == 2) {
      QueryRequest req;
      req.query = queries[turn % queries.size()];
      if (turn % 8 == 6) req.deadline_ms = 25.0;
      (void)(*sharded)->Execute(req);
      ++shard_queries;
    }
  }

  // Quiesce: stop injecting, let every in-flight query retire.
  fault_injection::Disable();
  service.Drain();
  server.Stop();

  const auto stats = service.stats();
  std::printf(
      "soak: %.1fs, %llu requests sent (%llu accepted, %llu rejected "
      "over HTTP, %llu transport errors, %llu probes)\n",
      seconds, static_cast<unsigned long long>(sent),
      static_cast<unsigned long long>(accepted),
      static_cast<unsigned long long>(rejected_http),
      static_cast<unsigned long long>(transport_errors),
      static_cast<unsigned long long>(probes));
  std::printf(
      "service: submitted=%llu done=%llu failed=%llu cancelled=%llu "
      "deadline=%llu rejected=%llu shed=%llu degraded=%llu\n",
      static_cast<unsigned long long>(stats.submitted),
      static_cast<unsigned long long>(stats.done),
      static_cast<unsigned long long>(stats.failed),
      static_cast<unsigned long long>(stats.cancelled),
      static_cast<unsigned long long>(stats.deadline_expired),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.shed),
      static_cast<unsigned long long>(stats.degraded));
  for (const auto& p : fault_injection::Snapshot()) {
    std::printf("fault %-28s hits=%llu failures=%llu\n", p.name.c_str(),
                static_cast<unsigned long long>(p.hits),
                static_cast<unsigned long long>(p.failures));
  }

  // The accounting identity: every submission ended in exactly one
  // terminal bucket. This is the soak's pass/fail line.
  const uint64_t buckets = stats.done + stats.failed + stats.cancelled +
                           stats.deadline_expired + stats.rejected +
                           stats.shed;
  if (stats.submitted != buckets) {
    std::fprintf(stderr,
                 "ACCOUNTING VIOLATION: submitted=%llu != buckets=%llu\n",
                 static_cast<unsigned long long>(stats.submitted),
                 static_cast<unsigned long long>(buckets));
    return 1;
  }
  if (stats.queued != 0 || stats.running != 0) {
    std::fprintf(stderr, "DRAIN VIOLATION: queued=%zu running=%zu\n",
                 stats.queued, stats.running);
    return 1;
  }

  // The same identity at the coordinator tier, and per shard service.
  const CoordinatorStats cs = (*sharded)->coordinator().stats();
  std::printf(
      "coordinator: submitted=%llu done=%llu failed=%llu deadline=%llu "
      "degraded=%llu (%llu queries under shard faults)\n",
      static_cast<unsigned long long>(cs.submitted),
      static_cast<unsigned long long>(cs.done),
      static_cast<unsigned long long>(cs.failed),
      static_cast<unsigned long long>(cs.deadline_expired),
      static_cast<unsigned long long>(cs.degraded),
      static_cast<unsigned long long>(shard_queries));
  const uint64_t coord_buckets = cs.done + cs.failed + cs.cancelled +
                                 cs.deadline_expired + cs.rejected + cs.shed;
  if (cs.submitted != shard_queries || cs.submitted != coord_buckets) {
    std::fprintf(
        stderr,
        "COORDINATOR ACCOUNTING VIOLATION: sent=%llu submitted=%llu "
        "buckets=%llu\n",
        static_cast<unsigned long long>(shard_queries),
        static_cast<unsigned long long>(cs.submitted),
        static_cast<unsigned long long>(coord_buckets));
    return 1;
  }
  for (size_t s = 0; s < (*sharded)->num_shards(); ++s) {
    const auto ss = (*sharded)->shard_stats()[s];
    const uint64_t shard_buckets = ss.done + ss.failed + ss.cancelled +
                                   ss.deadline_expired + ss.rejected +
                                   ss.shed;
    if (ss.submitted != shard_buckets || ss.queued != 0 || ss.running != 0) {
      std::fprintf(stderr,
                   "SHARD %zu ACCOUNTING VIOLATION: submitted=%llu "
                   "buckets=%llu queued=%zu running=%zu\n",
                   s, static_cast<unsigned long long>(ss.submitted),
                   static_cast<unsigned long long>(shard_buckets), ss.queued,
                   ss.running);
      return 1;
    }
    // Plan sessions may legitimately survive here: an injected
    // shard.rpc.send fault on the Release call leaves one behind, which
    // is the operator's cue to bound session lifetime, not a soak
    // failure. The unfaulted leak check lives in tests/shard_test.cc.
    std::printf("shard %zu: %zu plan sessions left behind by faulted "
                "releases\n",
                s, (*sharded)->node(s).live_plan_sessions());
  }

  // -------------------------------------------------------------------
  // Phase 2: the replicated tier under a deterministic kill/restart
  // schedule. Injection stays DISABLED — the chaos here is whole-replica
  // death, flipped by KillSwitchChannel between queries — so the bar is
  // absolute: while every shard keeps at least one live replica, every
  // answer must be kDone, non-degraded, and bitwise-identical to the
  // flat engine.
  const uint64_t rseed = seed ^ 0x5E7B4CULL;
  KillSwitchChannel* switches[2][2] = {{nullptr, nullptr},
                                       {nullptr, nullptr}};
  ShardedEngineOptions replica_opts;
  replica_opts.num_shards = 2;
  replica_opts.replicas_per_shard = 2;
  replica_opts.base_seed = rseed;
  replica_opts.service.engine = sopts.engine;
  replica_opts.replica.breaker.failure_threshold = 1;
  // Cooldown 0: a restarted replica rejoins on the very next query's
  // HalfOpen probe — recovery is deterministic, not timer-dependent.
  replica_opts.replica.breaker.open_cooldown_ms = 0.0;
  replica_opts.wrap_channel = [&switches](std::unique_ptr<ShardChannel> ch,
                                          uint32_t s, uint32_t r) {
    auto wrapped = std::make_unique<KillSwitchChannel>(std::move(ch));
    switches[s][r] = wrapped.get();
    return std::unique_ptr<ShardChannel>(std::move(wrapped));
  };
  auto replicated =
      ShardedEngine::Create(ds.graph(), ds.reference_embedding(),
                            replica_opts);
  if (!replicated.ok()) {
    std::fprintf(stderr, "replicated engine build failed: %s\n",
                 replicated.status().ToString().c_str());
    return 1;
  }

  // The flat reference the replicated answers must match bit for bit.
  ServiceOptions ref_opts;
  ref_opts.base_seed = rseed;
  ref_opts.engine = sopts.engine;
  auto reference = QueryService::RunBatch(ctx, queries, ref_opts);
  for (const auto& r : reference) {
    if (!r.ok()) {
      std::fprintf(stderr, "flat reference failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
  }

  // xorshift64 over the soak seed: the kill/restart schedule is a pure
  // function of --seed, so a failing run replays exactly.
  uint64_t rng = rseed | 1;
  auto next_rand = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  const int kReplicaQueries = 160;
  int dead[2] = {-1, -1};  // dead replica index per shard, -1 = none
  uint64_t kills = 0, restarts = 0;
  for (int i = 0; i < kReplicaQueries; ++i) {
    if (i % 5 == 2) {
      // Flip one switch: restart the shard's dead replica if it has
      // one, else kill one — the invariant "at most one dead replica
      // per shard" holds by construction.
      const uint32_t s = static_cast<uint32_t>(next_rand() % 2);
      if (dead[s] >= 0) {
        switches[s][dead[s]]->Restart();
        dead[s] = -1;
        ++restarts;
      } else {
        dead[s] = static_cast<int>(next_rand() % 2);
        switches[s][dead[s]]->Kill();
        ++kills;
      }
    }
    QueryRequest req;
    req.query = queries[i % queries.size()];
    req.seed = QueryService::QuerySeed(rseed, i % queries.size());
    QueryResponse resp = (*replicated)->Execute(req);
    if (resp.state != QueryState::kDone || resp.degraded) {
      std::fprintf(stderr,
                   "REPLICA CHAOS VIOLATION: query %d state=%d "
                   "degraded=%d status=%s (>=1 replica/shard was live)\n",
                   i, static_cast<int>(resp.state),
                   static_cast<int>(resp.degraded),
                   resp.status.ToString().c_str());
      return 1;
    }
    const AggregateResult& want = *reference[i % queries.size()];
    if (resp.result.v_hat != want.v_hat || resp.result.moe != want.moe ||
        resp.result.rounds != want.rounds ||
        resp.result.total_draws != want.total_draws) {
      std::fprintf(stderr, "REPLICA PARITY VIOLATION at query %d\n", i);
      return 1;
    }
  }
  for (int s = 0; s < 2; ++s) {
    if (dead[s] >= 0) switches[s][dead[s]]->Restart();
  }

  // Whole-set loss is the one thing replication cannot hide: with BOTH
  // replicas of shard 0 down the answer degrades gracefully over the
  // surviving shard (the plan-loss contract), it does not fail.
  switches[0][0]->Kill();
  switches[0][1]->Kill();
  {
    QueryRequest req;
    req.query = queries[0];
    QueryResponse resp = (*replicated)->Execute(req);
    if (resp.state != QueryState::kDone || !resp.degraded) {
      std::fprintf(stderr,
                   "WHOLE-SET LOSS VIOLATION: state=%d degraded=%d "
                   "status=%s\n",
                   static_cast<int>(resp.state),
                   static_cast<int>(resp.degraded),
                   resp.status.ToString().c_str());
      return 1;
    }
  }
  switches[0][0]->Restart();
  switches[0][1]->Restart();

  // Coordinator identity + tier health for the replicated run.
  const CoordinatorStats rcs = (*replicated)->coordinator().stats();
  const uint64_t rbuckets = rcs.done + rcs.failed + rcs.cancelled +
                            rcs.deadline_expired + rcs.rejected + rcs.shed;
  if (rcs.submitted != static_cast<uint64_t>(kReplicaQueries) + 1 ||
      rcs.submitted != rbuckets || rcs.failed != 0 || rcs.degraded != 1) {
    std::fprintf(stderr,
                 "REPLICA COORDINATOR VIOLATION: submitted=%llu "
                 "buckets=%llu failed=%llu degraded=%llu\n",
                 static_cast<unsigned long long>(rcs.submitted),
                 static_cast<unsigned long long>(rbuckets),
                 static_cast<unsigned long long>(rcs.failed),
                 static_cast<unsigned long long>(rcs.degraded));
    return 1;
  }
  uint64_t breaker_opens = 0, divergent = 0;
  for (const ChannelHealth& h : (*replicated)->coordinator().channel_health()) {
    breaker_opens += h.breaker_opens;
    divergent += h.divergent_plans;
  }
  if (kills > 0 && breaker_opens == 0) {
    std::fprintf(stderr, "REPLICA HEALTH VIOLATION: %llu kills but no "
                 "breaker ever opened\n",
                 static_cast<unsigned long long>(kills));
    return 1;
  }
  if (divergent != 0) {
    std::fprintf(stderr, "DIVERGENCE VIOLATION: %llu replica plans failed "
                 "the bit-identity check\n",
                 static_cast<unsigned long long>(divergent));
    return 1;
  }
  // Leak gate: injection was off and KillSwitchChannel passes Release
  // through, so every plan session must have been retired.
  for (size_t s = 0; s < (*replicated)->num_shards(); ++s) {
    for (size_t r = 0; r < (*replicated)->num_replicas(s); ++r) {
      const size_t live = (*replicated)->node(s, r).live_plan_sessions();
      if (live != 0) {
        std::fprintf(stderr,
                     "REPLICA LEAK VIOLATION: shard %zu replica %zu has "
                     "%zu live plan sessions\n", s, r, live);
        return 1;
      }
    }
  }

  // The operator's view: shard-tier health spliced into /stats by the
  // augmenter seam, served over a real socket.
  HttpServer tier_server(service);
  tier_server.SetStatsAugmenter(
      [&replicated] { return RenderShardTierJson((*replicated)->coordinator()); });
  if (Status s = tier_server.Start(); !s.ok()) {
    std::fprintf(stderr, "tier server start failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  auto tier_stats = client.Fetch("127.0.0.1", tier_server.port(), "GET",
                                 "/stats");
  if (!tier_stats.ok() ||
      tier_stats->body.find("\"shard_tier\"") == std::string::npos ||
      tier_stats->body.find("\"failovers\"") == std::string::npos) {
    std::fprintf(stderr, "STATS VIOLATION: /stats is missing the "
                 "shard_tier block\n");
    tier_server.Stop();
    return 1;
  }
  tier_server.Stop();

  std::printf(
      "replica chaos: %d queries, %llu kills, %llu restarts, "
      "%llu breaker opens — zero failures, zero degraded, bitwise parity "
      "held\n",
      kReplicaQueries, static_cast<unsigned long long>(kills),
      static_cast<unsigned long long>(restarts),
      static_cast<unsigned long long>(breaker_opens));
  std::printf("chaos soak passed: accounting identity holds\n");
  return 0;
}
