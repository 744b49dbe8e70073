// Fleet telemetry: TimeSeries bucketing/clamping/merge algebra, the
// per-session breadcrumb ring, tail-based trace retention (exact top-k plus
// every failure, bounded, deterministic under ties), shard-count
// bit-invariance of the whole exported timeline document, the
// FlightRecorder postmortem wiring for degraded / gave-up sessions, and
// materialized traces that agree with the oracle's trace of the same session
// (per-round frame tallies included).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "channel/outage.hpp"
#include "fleet/engine.hpp"
#include "fleet/telemetry.hpp"
#include "obs/flight.hpp"
#include "obs/timeseries.hpp"
#include "sim/proxied.hpp"

namespace mw = mobiweb;
namespace fleet = mobiweb::fleet;
namespace obs = mobiweb::obs;

namespace {

// Weakly-connected fleet with a retry budget tight enough that some sessions
// terminate degraded — the population whose traces must always survive
// retention.
fleet::FleetConfig lossy_config(std::size_t sessions) {
  fleet::FleetConfig cfg;
  cfg.corpus.corpus_size = 8;
  cfg.corpus.seed = 77;
  cfg.sessions = sessions;
  cfg.seed = 1234;
  cfg.alpha = 0.25;
  cfg.request_delay = 2.0;
  cfg.max_rounds = 25;
  cfg.arrival_spread_s = 30.0;
  cfg.outage = std::make_shared<mw::channel::MarkovOutageModel>(
      mw::channel::MarkovOutageModel::with_duty_cycle(0.3, 5.0));
  cfg.retry.retry_budget = 8;
  cfg.retry.initial_timeout_s = 0.5;
  cfg.retry.backoff_multiplier = 2.0;
  cfg.retry.max_backoff_s = 30.0;
  cfg.retry.jitter = 0.1;
  cfg.telemetry.emplace();
  cfg.telemetry->bucket_width_s = 2.0;
  cfg.telemetry->trace_top_fraction = 0.02;
  return cfg;
}

fleet::FleetResult run_with_shards(fleet::FleetConfig cfg, std::size_t shards) {
  cfg.shards = shards;
  fleet::FleetEngine engine(cfg);
  return engine.run();
}

}  // namespace

// ---- TimeSeries algebra ---------------------------------------------------

TEST(TimeSeries, AddsLandInFloorBuckets) {
  obs::TimeSeries ts(2.0, 16);
  ASSERT_TRUE(ts.engaged());
  ts.add(obs::Channel::kRounds, 0.0);
  ts.add(obs::Channel::kRounds, 1.99);
  ts.add(obs::Channel::kRounds, 2.0);
  ts.add(obs::Channel::kRounds, 7.5, 3);
  EXPECT_EQ(ts.buckets(), 4u);
  EXPECT_EQ(ts.at(obs::Channel::kRounds, 0), 2);
  EXPECT_EQ(ts.at(obs::Channel::kRounds, 1), 1);
  EXPECT_EQ(ts.at(obs::Channel::kRounds, 2), 0);
  EXPECT_EQ(ts.at(obs::Channel::kRounds, 3), 3);
  EXPECT_EQ(ts.total(obs::Channel::kRounds), 6);
  // Channels that never recorded read as all-zero, not out-of-range.
  EXPECT_EQ(ts.total(obs::Channel::kHandoffs), 0);
  EXPECT_EQ(ts.at(obs::Channel::kHandoffs, 3), 0);
  EXPECT_EQ(ts.clamped(), 0);
}

TEST(TimeSeries, AddsPastTheWindowClampIntoTheLastBucket) {
  obs::TimeSeries ts(1.0, 4);
  ts.add(obs::Channel::kFramesSent, 0.5);
  ts.add(obs::Channel::kFramesSent, 100.0);   // past the window
  ts.add(obs::Channel::kFramesSent, 1e9, 5);  // far past it
  EXPECT_EQ(ts.buckets(), 4u);
  EXPECT_EQ(ts.at(obs::Channel::kFramesSent, 0), 1);
  EXPECT_EQ(ts.at(obs::Channel::kFramesSent, 3), 6);
  EXPECT_EQ(ts.clamped(), 2);  // two add() calls were clamped
  EXPECT_EQ(ts.total(obs::Channel::kFramesSent), 7);
}

TEST(TimeSeries, MergeIsOrderIndependent) {
  const auto make = [](double t0, long d) {
    obs::TimeSeries ts(1.0, 32);
    ts.add(obs::Channel::kFramesSent, t0, d);
    ts.add(obs::Channel::kFramesLost, t0 + 3.0, d + 1);
    ts.add(obs::Channel::kSuspensions, 40.0);  // clamps: 32-bucket window
    return ts;
  };
  const obs::TimeSeries a = make(0.2, 1), b = make(5.7, 10), c = make(9.9, 100);

  obs::TimeSeries ab = a;
  ab.merge(b);
  ab.merge(c);
  obs::TimeSeries ba = c;
  ba.merge(b);
  ba.merge(a);
  EXPECT_EQ(ab.to_json(), ba.to_json());
  EXPECT_EQ(ab.clamped(), 3);
  EXPECT_EQ(ab.total(obs::Channel::kFramesSent), 111);
}

TEST(TimeSeries, DisengagedDefaultIsANoOp) {
  obs::TimeSeries ts;
  EXPECT_FALSE(ts.engaged());
  ts.add(obs::Channel::kRounds, 5.0);
  EXPECT_EQ(ts.buckets(), 0u);
  EXPECT_EQ(ts.total(obs::Channel::kRounds), 0);
  // Merging a disengaged series into an engaged one changes nothing; merging
  // an engaged one into a disengaged one adopts it.
  obs::TimeSeries live(1.0, 8);
  live.add(obs::Channel::kRounds, 0.0, 7);
  const std::string before = live.to_json();
  live.merge(ts);
  EXPECT_EQ(live.to_json(), before);
  ts.merge(live);
  EXPECT_EQ(ts.to_json(), before);
}

TEST(TimeSeries, ChannelNamesAreDistinctSnakeCase) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < obs::kChannelCount; ++i) {
    const std::string name = obs::channel_name(static_cast<obs::Channel>(i));
    EXPECT_NE(name, "unknown");
    for (const char ch : name) {
      EXPECT_TRUE((ch >= 'a' && ch <= 'z') || ch == '_') << name;
    }
    names.insert(name);
  }
  EXPECT_EQ(names.size(), obs::kChannelCount);
}

// ---- CrumbLog -------------------------------------------------------------

TEST(CrumbLog, OverwritesOldestAndSnapshotsInOrder) {
  fleet::CrumbLog log(4);
  for (int i = 0; i < 6; ++i) {
    log.push(obs::Event::kRoundEnd, static_cast<double>(i), i);
  }
  EXPECT_EQ(log.recorded(), 6);
  EXPECT_EQ(log.dropped(), 2);
  const std::vector<fleet::Crumb> kept = log.snapshot();
  ASSERT_EQ(kept.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(kept[static_cast<std::size_t>(i)].aux, i + 2);  // oldest first
  }
}

TEST(CrumbLog, UnderfilledSnapshotHasNoPadding) {
  fleet::CrumbLog log(8);
  log.push(obs::Event::kSessionStart, 0.0);
  log.push(obs::Event::kDecodeComplete, 1.0);
  EXPECT_EQ(log.dropped(), 0);
  const std::vector<fleet::Crumb> kept = log.snapshot();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].type, obs::Event::kSessionStart);
  EXPECT_EQ(kept[1].type, obs::Event::kDecodeComplete);
}

// ---- Timeline document shard invariance -----------------------------------

TEST(FleetTelemetry, TimelineDocumentBitIdenticalAcrossShardCounts) {
  const fleet::FleetConfig cfg = lossy_config(400);
  const fleet::FleetResult r1 = run_with_shards(cfg, 1);
  EXPECT_GT(r1.degraded + r1.gave_up, 0) << "config must produce failures";
  const std::string doc1 = fleet::timeline_document(r1, cfg);
  EXPECT_NE(doc1.find("\"schema\": \"mobiweb-timeline/1\""), std::string::npos);
  for (const std::size_t shards : {4u, 7u}) {
    const fleet::FleetResult rs = run_with_shards(cfg, shards);
    EXPECT_EQ(doc1, fleet::timeline_document(rs, cfg))
        << "timeline diverged at " << shards << " shards";
  }
}

TEST(FleetTelemetry, TimeSeriesTotalsMatchFleetAggregates) {
  const fleet::FleetConfig cfg = lossy_config(300);
  const fleet::FleetResult r = run_with_shards(cfg, 3);
  const obs::TimeSeries& ts = r.timeseries;
  ASSERT_TRUE(ts.engaged());
  EXPECT_EQ(ts.total(obs::Channel::kSessionsStarted),
            static_cast<long>(r.sessions));
  EXPECT_EQ(ts.total(obs::Channel::kSessionsEnded),
            static_cast<long>(r.sessions));
  EXPECT_EQ(ts.total(obs::Channel::kSessionsFailed), r.degraded + r.gave_up);
  EXPECT_EQ(ts.total(obs::Channel::kFramesSent), r.frames_sent);
  EXPECT_EQ(ts.total(obs::Channel::kFramesLost), r.frames_lost);
  EXPECT_EQ(ts.total(obs::Channel::kSuspensions), r.suspensions);
  // kRounds counts stalled (non-terminal) round boundaries only — a round
  // that completes or aborts the session ends mid-round, so the channel is
  // the fleet round total minus one terminal round per such session.
  EXPECT_EQ(ts.total(obs::Channel::kRounds),
            r.rounds - r.completed - r.aborted_irrelevant);
}

// ---- Tail-based trace retention -------------------------------------------

TEST(FleetTelemetry, TiedTailBreaksOnSessionIndexExactly) {
  // One document, no corruption, no outage, simultaneous arrivals: every
  // session's transfer time is identical, so the tail ranking is decided
  // purely by the deterministic tie-break (session index ascending) — and it
  // must hold across a shard split, where each shard offers its own
  // candidates.
  fleet::FleetConfig cfg;
  cfg.corpus.corpus_size = 1;
  cfg.corpus.seed = 9;
  cfg.sessions = 40;
  cfg.seed = 7;
  cfg.alpha = 0.0;
  cfg.arrival_spread_s = 0.0;
  cfg.telemetry.emplace();
  cfg.telemetry->trace_top_fraction = 0.1;  // k = 4
  const fleet::FleetResult r = run_with_shards(cfg, 3);
  EXPECT_EQ(r.trace_tail_target, 4u);
  ASSERT_EQ(r.traces.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(r.traces[i].session, i);
    EXPECT_FALSE(r.traces[i].failed);
    EXPECT_DOUBLE_EQ(r.traces[i].time_s, r.traces[0].time_s);
  }
}

TEST(FleetTelemetry, RetentionKeepsEveryFailureAndTheExactSlowestTail) {
  fleet::FleetConfig cfg = lossy_config(250);
  cfg.record_outcomes = true;
  cfg.telemetry->trace_top_fraction = 0.04;  // k = 10
  const fleet::FleetResult r = run_with_shards(cfg, 4);
  ASSERT_EQ(r.outcomes.size(), r.sessions);

  std::set<std::uint32_t> failed_sessions;
  for (const fleet::SessionOutcome& o : r.outcomes) {
    if (o.result.gave_up || o.result.degraded) failed_sessions.insert(o.session);
  }
  ASSERT_GT(failed_sessions.size(), 0u);

  // Bounded: never more than the tail target plus the failures; every failed
  // session retained and flagged; traces sorted by session index.
  EXPECT_LE(r.traces.size(), r.trace_tail_target + failed_sessions.size());
  std::set<std::uint32_t> retained;
  for (const fleet::RetainedTrace& rt : r.traces) {
    EXPECT_TRUE(retained.insert(rt.session).second) << "duplicate trace";
    EXPECT_EQ(rt.failed, failed_sessions.count(rt.session) == 1);
    EXPECT_GT(rt.trace.events().size(), 0u);
  }
  for (const std::uint32_t s : failed_sessions) EXPECT_EQ(retained.count(s), 1u);

  // Exact top-k: every retained non-failed session must rank at or above
  // every non-retained session under the total tail order.
  double slowest_dropped = -1.0;
  std::uint32_t slowest_dropped_id = 0;
  for (const fleet::SessionOutcome& o : r.outcomes) {
    if (retained.count(o.session)) continue;
    if (slowest_dropped < 0.0 ||
        fleet::ranks_before(o.result.time, o.session, slowest_dropped,
                            slowest_dropped_id)) {
      slowest_dropped = o.result.time;
      slowest_dropped_id = o.session;
    }
  }
  ASSERT_GE(slowest_dropped, 0.0);
  for (const fleet::RetainedTrace& rt : r.traces) {
    if (rt.failed) continue;
    EXPECT_TRUE(fleet::ranks_before(rt.time_s, rt.session, slowest_dropped,
                                    slowest_dropped_id))
        << "session " << rt.session << " retained over a slower one";
  }
}

TEST(FleetTelemetry, MaterializedTracesCarryTheTerminalVerdict) {
  fleet::FleetConfig cfg = lossy_config(200);
  cfg.record_outcomes = true;
  const fleet::FleetResult r = run_with_shards(cfg, 2);
  ASSERT_GT(r.traces.size(), 0u);
  int lossy_sessions = 0;
  for (const fleet::RetainedTrace& rt : r.traces) {
    const obs::SessionTrace& t = rt.trace;
    EXPECT_EQ(rt.failed, t.degraded() || t.gave_up());
    EXPECT_GE(t.end_time(), t.start_time());
    ASSERT_FALSE(t.events().empty());
    EXPECT_EQ(t.events().front().type, obs::Event::kSessionStart);
    EXPECT_EQ(t.events().back().type, obs::Event::kSessionEnd);
    EXPECT_NE(t.label().find("session " + std::to_string(rt.session)),
              std::string::npos);
    // Round spans carry the walk's own per-round frame tally: every round
    // sent frames, and the classifications add up to what it sent.
    const mw::sim::TransferResult& result = r.outcomes[rt.session].result;
    long sent = 0;
    long lost = 0;
    for (const obs::RoundSummary& round : t.rounds()) {
      EXPECT_GT(round.frames_sent, 0) << "session " << rt.session;
      EXPECT_EQ(round.frames_sent, round.frames_intact + round.frames_corrupted +
                                       round.frames_duplicate + round.frames_lost);
      sent += round.frames_sent;
      lost += round.frames_lost;
    }
    if (rt.crumbs_dropped == 0) {
      EXPECT_EQ(static_cast<int>(t.rounds().size()), result.rounds);
      EXPECT_EQ(sent, result.packets);
      EXPECT_EQ(lost, result.frames_lost);
      if (result.frames_lost > 0) ++lossy_sessions;
    }
  }
  EXPECT_GT(lossy_sessions, 0) << "config must retain sessions that lost frames";
}

// ---- FlightRecorder postmortem wiring -------------------------------------

TEST(FleetTelemetry, FlightRecorderDumpsEveryFailedSession) {
  obs::FlightRecorder flight(64);
  std::vector<std::string> dumps;
  flight.set_sink([&dumps](const std::string& json) { dumps.push_back(json); });

  fleet::FleetConfig cfg = lossy_config(200);
  cfg.telemetry->flight = &flight;
  const fleet::FleetResult r = run_with_shards(cfg, 3);
  const long failures = r.degraded + r.gave_up;
  ASSERT_GT(failures, 0);
  EXPECT_EQ(static_cast<long>(dumps.size()), failures);
  EXPECT_EQ(flight.dump_count(), static_cast<int>(failures));
  for (const std::string& json : dumps) {
    const bool tagged = json.find("fleet.degraded") != std::string::npos ||
                        json.find("fleet.gave_up") != std::string::npos;
    EXPECT_TRUE(tagged) << json.substr(0, 120);
  }
}

TEST(FleetTelemetry, TelemetryNeverAltersSessionResults) {
  // The whole instrumentation layer observes; it must not consume RNG draws
  // or change accounting. Same config with telemetry on and off must agree
  // on every aggregate.
  fleet::FleetConfig with = lossy_config(200);
  fleet::FleetConfig without = with;
  without.telemetry.reset();
  const fleet::FleetResult a = run_with_shards(with, 2);
  const fleet::FleetResult b = run_with_shards(without, 2);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.gave_up, b.gave_up);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.frames_sent, b.frames_sent);
  EXPECT_EQ(a.frames_lost, b.frames_lost);
  EXPECT_EQ(a.suspensions, b.suspensions);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_DOUBLE_EQ(a.session_time_s, b.session_time_s);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
}

// ---- Fleet trace vs oracle trace --------------------------------------------

TEST(FleetTelemetry, RetainedProxiedTraceMatchesTheOracleTrace) {
  // A degraded proxied session's materialized trace, replayed from its
  // breadcrumbs, must tell the same story as the oracle's full trace of the
  // same session: the same cross-tier events and the same per-round frame
  // tallies (times differ only by the session's start offset).
  fleet::FleetConfig cfg = lossy_config(300);
  cfg.alpha = 0.45;
  cfg.max_rounds = 10;
  cfg.record_outcomes = true;
  cfg.proxy.emplace();
  cfg.proxy->model.warm_hit = 0.6;
  cfg.proxy->model.replica_age_mean_s = 40.0;
  cfg.proxy->model.handoff_rate = 0.35;
  cfg.proxy->model.update_interval_s = 15.0;
  cfg.proxy->origin_outage = std::make_shared<mw::channel::MarkovOutageModel>(
      mw::channel::MarkovOutageModel::with_duty_cycle(0.4, 6.0));
  cfg.shards = 3;
  fleet::FleetEngine engine(cfg);
  const fleet::FleetResult r = engine.run();

  int compared = 0;
  // Cross-tier events compared, summed over the replayed sessions.
  long outages = 0, origin_outages = 0, handoffs = 0, stale = 0, dropped = 0;
  for (const fleet::RetainedTrace& rt : r.traces) {
    const fleet::SessionOutcome& out = r.outcomes[rt.session];
    if (!out.result.degraded || rt.crumbs_dropped != 0) continue;

    const auto cooked = engine.cache().get(out.key);
    mw::sim::ProxiedTransferConfig pc;
    pc.base.m = static_cast<int>(cooked->transmitter.m());
    pc.base.n = static_cast<int>(cooked->transmitter.n());
    pc.base.alpha = cfg.alpha;
    pc.base.caching = cfg.caching;
    pc.base.relevance_threshold = cfg.relevance_threshold;
    pc.base.time_per_packet =
        static_cast<double>(cooked->frame_size) * 8.0 / cfg.bandwidth_bps;
    pc.base.request_delay = cfg.request_delay;
    pc.base.max_rounds = cfg.max_rounds;
    pc.retry = cfg.retry;
    pc.proxy = cfg.proxy->model;
    pc.jitter_seed = fleet::session_jitter_seed(cfg.seed, rt.session);
    pc.proxy_seed = fleet::session_proxy_seed(cfg.seed, rt.session);
    const std::shared_ptr<mw::channel::OutageModel> link =
        cfg.outage->session_clone();
    const auto link_rng = std::make_shared<mw::Rng>(
        fleet::session_outage_seed(cfg.seed, rt.session));
    pc.base.link_up = [link, link_rng](double t) {
      return link->link_up(t, *link_rng);
    };
    const std::shared_ptr<mw::channel::OutageModel> origin =
        cfg.proxy->origin_outage->session_clone();
    const auto origin_rng = std::make_shared<mw::Rng>(
        fleet::session_origin_seed(cfg.seed, rt.session));
    pc.origin_up = [origin, origin_rng](double t) {
      return origin->link_up(t, *origin_rng);
    };
    obs::SessionTrace oracle;
    pc.base.trace = &oracle;
    mw::Rng rng(fleet::session_seed(cfg.seed, rt.session));
    mw::sim::simulate_proxied_transfer(cooked->clear_content, pc, rng);

    const obs::SessionTrace& fleet_trace = rt.trace;
    EXPECT_TRUE(oracle.degraded());
    EXPECT_TRUE(fleet_trace.degraded());
    EXPECT_EQ(fleet_trace.outage_count(), oracle.outage_count());
    EXPECT_EQ(fleet_trace.origin_outage_count(), oracle.origin_outage_count());
    EXPECT_EQ(fleet_trace.handoff_count(), oracle.handoff_count());
    EXPECT_EQ(fleet_trace.stale_failover_count(),
              oracle.stale_failover_count());
    EXPECT_EQ(fleet_trace.reconcile_dropped(), oracle.reconcile_dropped());
    ASSERT_EQ(fleet_trace.rounds().size(), oracle.rounds().size());
    for (std::size_t i = 0; i < oracle.rounds().size(); ++i) {
      const obs::RoundSummary& a = fleet_trace.rounds()[i];
      const obs::RoundSummary& b = oracle.rounds()[i];
      EXPECT_EQ(a.round, b.round);
      EXPECT_EQ(a.frames_sent, b.frames_sent);
      EXPECT_EQ(a.frames_intact, b.frames_intact);
      EXPECT_EQ(a.frames_corrupted, b.frames_corrupted);
      EXPECT_EQ(a.frames_duplicate, b.frames_duplicate);
      EXPECT_EQ(a.frames_lost, b.frames_lost);
    }
    outages += oracle.outage_count();
    origin_outages += oracle.origin_outage_count();
    handoffs += oracle.handoff_count();
    stale += oracle.stale_failover_count();
    dropped += oracle.reconcile_dropped();
    ++compared;
  }
  EXPECT_GT(compared, 0) << "config must retain degraded proxied sessions";
  // Every cross-tier event kind was compared somewhere.
  EXPECT_GT(outages, 0);
  EXPECT_GT(origin_outages, 0);
  EXPECT_GT(handoffs, 0);
  EXPECT_GT(stale, 0);
  EXPECT_GT(dropped, 0);
}
