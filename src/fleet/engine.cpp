#include "fleet/engine.hpp"

#include <algorithm>
#include <bitset>
#include <chrono>
#include <cmath>
#include <numeric>
#include <queue>

#include "obs/profile.hpp"
#include "util/check.hpp"

namespace mobiweb::fleet {

namespace {

// Edge-tier per-session state; allocated only when FleetConfig::proxy is set
// so non-proxied fleets pay one pointer per session, not this.
struct ProxyState {
  sim::EdgeState edge;
  std::unique_ptr<channel::OutageModel> origin;  // nullptr = origin always up
  Rng origin_rng{0};
};
static_assert(sizeof(ProxyState) <= 160, "ProxyState grew: it is per session");

// Per-session live state. Kept small on purpose: 1M sessions must fit a
// couple hundred MB (peak RSS is a gated benchmark metric), and the per-frame
// work is one Bernoulli draw plus bitmap arithmetic — no per-session byte
// copies (cooked frames are shared read-only out of the DocumentCache).
struct Session {
  Rng rng{0};  // corruption draws
  // shared_ptr, not a raw pointer: with a bounded DocumentCache the entry can
  // be evicted mid-run, and the session must keep its document alive.
  std::shared_ptr<const CookedDocument> doc;
  double start = 0.0;
  // DocumentCache::build enforces n = ceil(gamma*m) <= kMaxCookedPackets at
  // cook time, so the inline receipt set holds every index a session sees.
  sim::SessionWalk<std::bitset<kMaxCookedPackets>> walk;
  // Link policy; engaged only when FleetConfig::outage is set.
  std::unique_ptr<channel::OutageModel> outage;
  Rng outage_rng{0};
  std::unique_ptr<ProxyState> px;  // engaged only when FleetConfig::proxy set
  // Breadcrumb span log; engaged only when FleetConfig::telemetry is set.
  // Moved into the shard's TraceRetention at finish, so it is only ever
  // alive for in-flight sessions.
  std::unique_ptr<CrumbLog> crumbs;
};
static_assert(sizeof(Session) <= 264, "Session grew: it is per session");

// The walk's environment for one fleet session: every draw comes from the
// session's own streams, and the link and origin from its OutageModel clones.
struct SessionEnv {
  Session& s;
  double alpha;

  bool corrupted() { return s.rng.next_bernoulli(alpha); }
  bool link_down(double t) {
    return s.outage != nullptr && !s.outage->link_up(t, s.outage_rng);
  }
  static bool feedback_lost() { return false; }  // reliable back channel
  bool origin_up(double t) {
    ProxyState& px = *s.px;
    return px.origin == nullptr || px.origin->link_up(t, px.origin_rng);
  }
  sim::EdgeState* edge() { return s.px != nullptr ? &s.px->edge : nullptr; }
};

// Min-heap event: next round of session `index` fires at time `t`. Ties break
// on the session index so processing order is deterministic.
struct Event {
  double t = 0.0;
  std::uint32_t index = 0;
  friend bool operator>(const Event& a, const Event& b) {
    if (a.t != b.t) return a.t > b.t;
    return a.index > b.index;
  }
};

// One shard's share of the run: the FleetResult sums over its sessions
// (with telemetry, `sums.timeseries` is its time buckets), their transfer
// times (tail_stats only) and its trace candidates.
struct ShardTotals {
  FleetResult sums;
  std::vector<double> times;
  TraceRetention retention;
};

// A summed counter of FleetResult (or its edge-tier totals) and the metric
// that mirrors it; the tables below drive the shard merge and the mirror.
template <class Totals>
struct CounterField {
  const char* metric;
  long Totals::*member;
};

constexpr CounterField<FleetResult> kFleetCounterFields[] = {
    {"fleet.sessions_completed", &FleetResult::completed},
    {"fleet.sessions_gave_up", &FleetResult::gave_up},
    {"fleet.sessions_aborted_irrelevant", &FleetResult::aborted_irrelevant},
    {"fleet.sessions_degraded", &FleetResult::degraded},
    {"fleet.frames_sent", &FleetResult::frames_sent},
    {"fleet.frames_lost_outage", &FleetResult::frames_lost},
    {"fleet.suspensions", &FleetResult::suspensions},
};

// The edge-tier totals as one field list: drives the shard merge and the
// proxy.* counters.
constexpr CounterField<FleetProxyTotals> kProxyTotalFields[] = {
    {"proxy.replica_hits", &FleetProxyTotals::replica_hits},
    {"proxy.stale_serves", &FleetProxyTotals::stale_serves},
    {"proxy.failovers", &FleetProxyTotals::failovers},
    {"proxy.handoffs", &FleetProxyTotals::handoffs},
    {"proxy.origin_fetches", &FleetProxyTotals::origin_fetches},
    {"proxy.origin_suspensions", &FleetProxyTotals::origin_suspensions},
    {"proxy.reconciliations", &FleetProxyTotals::reconciliations},
    {"proxy.packets_refetched", &FleetProxyTotals::packets_refetched},
    {"proxy.stale_frames", &FleetProxyTotals::stale_frames},
    {"proxy.sessions_ended_stale", &FleetProxyTotals::sessions_ended_stale},
    {"proxy.origin_generation_bumps",
     &FleetProxyTotals::origin_generation_bumps},
    {"proxy.reconcile_dropped_packets",
     &FleetProxyTotals::reconcile_dropped_packets},
};

// One session's edge-tier stats as a contribution to the fleet totals.
FleetProxyTotals session_totals(const sim::ProxyStats& p) {
  FleetProxyTotals t;
  t.replica_hits = p.replica_hits;
  t.stale_serves = p.stale_serves;
  t.failovers = p.failovers;
  t.handoffs = p.handoffs;
  t.origin_fetches = p.origin_fetches;
  t.origin_suspensions = p.origin_suspensions;
  t.reconciliations = p.reconciliations;
  t.packets_refetched = p.packets_refetched;
  t.stale_frames = p.stale_frames;
  t.sessions_ended_stale = p.ended_stale ? 1 : 0;
  t.origin_generation_bumps = p.origin_generation_bumps;
  t.reconcile_dropped_packets = p.reconcile_dropped_packets;
  return t;
}

// The fleet's own fields plus the retry and proxy-model configs the walk
// will use.
void validate(const FleetConfig& config) {
  MOBIWEB_CHECK_MSG(!config.gammas.empty(), "FleetConfig: no gammas");
  MOBIWEB_CHECK_MSG(config.alpha >= 0.0 && config.alpha < 1.0,
                    "FleetConfig: alpha in [0,1)");
  MOBIWEB_CHECK_MSG(config.max_rounds >= 1, "FleetConfig: max_rounds >= 1");
  MOBIWEB_CHECK_MSG(config.bandwidth_bps > 0.0, "FleetConfig: bandwidth > 0");
  MOBIWEB_CHECK_MSG(config.zipf_s >= 0.0, "FleetConfig: zipf_s >= 0");
  MOBIWEB_CHECK_MSG(config.arrival_rate_hz >= 0.0,
                    "FleetConfig: arrival_rate_hz >= 0");
  if (config.outage != nullptr || config.proxy.has_value()) {
    sim::validate(config.retry);
  }
  if (config.proxy.has_value()) sim::validate(config.proxy->model);
}

std::uint64_t salted_session_seed(std::uint64_t fleet_seed, std::uint64_t salt,
                                  std::uint64_t session) {
  return session_seed(fleet_seed ^ salt, session);
}

}  // namespace

std::uint64_t session_seed(std::uint64_t fleet_seed, std::uint64_t session) {
  SplitMix64 mix(fleet_seed ^ (0xD1B54A32D192ED03ull * (session + 1)));
  mix.next();
  return mix.next();
}

std::uint64_t session_outage_seed(std::uint64_t fleet_seed, std::uint64_t session) {
  return salted_session_seed(fleet_seed, 0x6f757461676521ull, session);  // "outage!"
}

std::uint64_t session_jitter_seed(std::uint64_t fleet_seed, std::uint64_t session) {
  return salted_session_seed(fleet_seed, 0x6a69747465727aull, session);  // "jitterz"
}

std::uint64_t session_zipf_seed(std::uint64_t fleet_seed, std::uint64_t session) {
  return salted_session_seed(fleet_seed, 0x7a6970666421ull, session);  // "zipfd!"
}

std::uint64_t fleet_arrival_seed(std::uint64_t fleet_seed) {
  return salted_session_seed(fleet_seed, 0x706f7373696eull, 0);  // "possin"
}

std::uint64_t session_proxy_seed(std::uint64_t fleet_seed, std::uint64_t session) {
  return salted_session_seed(fleet_seed, 0x70726f787921ull, session);  // "proxy!"
}

std::uint64_t session_origin_seed(std::uint64_t fleet_seed, std::uint64_t session) {
  return salted_session_seed(fleet_seed, 0x6f726967696e21ull, session);  // "origin!"
}

std::uint32_t session_proxy_assignment(std::uint64_t fleet_seed,
                                       std::uint64_t session,
                                       std::uint32_t proxies) {
  MOBIWEB_CHECK_MSG(proxies >= 1, "session_proxy_assignment: proxies >= 1");
  return static_cast<std::uint32_t>(
      salted_session_seed(fleet_seed, 0x656467656964ull, session) %  // "edgeid"
      proxies);
}

FleetProxyTotals& FleetProxyTotals::operator+=(const FleetProxyTotals& other) {
  for (const auto& f : kProxyTotalFields) {
    this->*f.member += other.*f.member;
  }
  return *this;
}

FleetEngine::FleetEngine(FleetConfig config)
    : config_(std::move(config)), cache_(config_.corpus) {
  validate(config_);
}

FleetResult FleetEngine::run(ThreadPool* pool) {
  MOBIWEB_PROFILE_SCOPE("fleet.run");
  const auto wall_start = std::chrono::steady_clock::now();
  if (pool == nullptr) pool = &ThreadPool::global();

  const std::size_t sessions = config_.sessions;
  FleetResult result;
  result.sessions = sessions;
  if (sessions == 0) return result;

  std::size_t shards = config_.shards != 0 ? config_.shards : pool->concurrency();
  shards = std::min(std::max<std::size_t>(shards, 1), sessions);
  result.shards = shards;

  const std::size_t corpus = config_.corpus.corpus_size;
  const std::size_t n_gammas = config_.gammas.size();

  // Zipf(s) popularity: cumulative weights over document ranks, computed once.
  // Each session's draw depends only on (seed, i), so document assignment is
  // deterministic and shard-invariant. zipf_s == 0 keeps round-robin.
  std::vector<double> zipf_cum;
  if (config_.zipf_s > 0.0) {
    zipf_cum.reserve(corpus);
    double acc = 0.0;
    for (std::size_t r = 0; r < corpus; ++r) {
      acc += std::pow(static_cast<double>(r + 1), -config_.zipf_s);
      zipf_cum.push_back(acc);
    }
  }
  const auto doc_of = [&](std::size_t i) -> std::uint32_t {
    if (zipf_cum.empty()) return static_cast<std::uint32_t>(i % corpus);
    Rng draw(session_zipf_seed(config_.seed, i));
    const double u = draw.next_double() * zipf_cum.back();
    const auto it = std::upper_bound(zipf_cum.begin(), zipf_cum.end(), u);
    const std::size_t rank =
        std::min(static_cast<std::size_t>(it - zipf_cum.begin()), corpus - 1);
    return static_cast<std::uint32_t>(rank);
  };
  const auto key_of = [&](std::size_t i) {
    return CacheKey{doc_of(i), config_.gammas[i % n_gammas]};
  };

  // Poisson arrivals: precompute every start serially from the fleet-wide
  // arrival stream (session 0 at t = 0, exponential inter-arrival gaps), so
  // starts are identical whatever the shard count. Rate 0 keeps the uniform
  // stagger over [0, arrival_spread_s).
  std::vector<double> poisson_starts;
  if (config_.arrival_rate_hz > 0.0) {
    poisson_starts.reserve(sessions);
    Rng arrivals(fleet_arrival_seed(config_.seed));
    double t = 0.0;
    for (std::size_t i = 0; i < sessions; ++i) {
      poisson_starts.push_back(t);
      // 1 - next_double() is in (0, 1], so the log is finite.
      t += -std::log(1.0 - arrivals.next_double()) / config_.arrival_rate_hz;
    }
  }
  const auto start_of = [&](std::size_t i) {
    if (!poisson_starts.empty()) return poisson_starts[i];
    return sessions > 1 ? config_.arrival_spread_s *
                              (static_cast<double>(i) /
                               static_cast<double>(sessions))
                        : 0.0;
  };

  // Warm every (document, γ) the fleet will touch in one batched burst, so
  // the IDA encodes run back-to-back on the pool instead of faulting in
  // lazily underneath 100k sessions. Round-robin assignment walks
  // (i % corpus, gammas[i % n_gammas]), which cycles with period
  // lcm(corpus, n_gammas) — NOT corpus * n_gammas — so that is the true
  // distinct-key count (and what misses() reports afterwards). Zipf
  // assignment has no closed form; enumerate and let prefill dedupe.
  {
    std::vector<CacheKey> keys;
    const std::size_t distinct =
        zipf_cum.empty() ? std::min(sessions, std::lcm(corpus, n_gammas))
                         : sessions;
    keys.reserve(distinct);
    for (std::size_t i = 0; i < distinct; ++i) keys.push_back(key_of(i));
    cache_.prefill(keys, pool);
  }

  // Session-time histograms, overall and per verdict (in WalkEnd order);
  // shards observe into them concurrently (the registry's instruments are
  // thread-safe, see obs/metrics.hpp).
  obs::Histogram* session_time = nullptr;
  obs::Histogram* session_time_by[sim::kWalkVerdicts] = {};
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *config_.metrics;
    session_time =
        &reg.histogram("fleet.session_time_s", obs::session_time_buckets());
    const char* const status[sim::kWalkVerdicts] = {
        "completed", "aborted_irrelevant", "gave_up", "degraded"};
    for (int v = 0; v < sim::kWalkVerdicts; ++v) {
      session_time_by[v] = &reg.histogram(
          std::string("fleet.session_time_s{status=") + status[v] + "}",
          obs::session_time_buckets());
    }
  }

  std::vector<ShardTotals> totals(shards);
  if (config_.record_outcomes) result.outcomes.resize(sessions);
  const std::size_t per_shard = (sessions + shards - 1) / shards;
  const bool proxied = config_.proxy.has_value();
  // The fleet-wide part of every session's walk plan; each event fills in
  // its session's document.
  sim::WalkPlan policy;
  policy.request_delay = config_.request_delay;
  policy.relevance_threshold = config_.relevance_threshold;
  policy.max_rounds = config_.max_rounds;
  policy.caching = config_.caching;
  if (config_.outage != nullptr || proxied) {
    // Proxied sessions back off on origin fades even with the link always
    // up, so the retry policy engages for both.
    policy.retry = &config_.retry;
  }
  if (proxied) policy.proxy = &config_.proxy->model;
  const bool telem = config_.telemetry.has_value();
  const FleetTelemetryConfig tc =
      config_.telemetry.value_or(FleetTelemetryConfig{});
  const std::size_t tail_target =
      telem ? trace_tail_target(tc.trace_top_fraction, sessions) : 0;
  result.trace_tail_target = tail_target;

  pool->run(shards, [&](std::size_t shard) {
    const std::size_t lo = shard * per_shard;
    const std::size_t hi = std::min(sessions, lo + per_shard);
    if (lo >= hi) return;
    ShardTotals& tot = totals[shard];

    // Telemetry sinks for this shard. `ts` doubles as the "telemetry on"
    // flag on the hot path (one null check per frame when off).
    obs::TimeSeries* ts = nullptr;
    if (telem) {
      tot.sums.timeseries = obs::TimeSeries(tc.bucket_width_s, tc.max_buckets);
      ts = &tot.sums.timeseries;
      tot.retention = TraceRetention(tail_target);
    }

    // Materialize this shard's slice of sessions and seed its event heap.
    std::vector<Session> states(hi - lo);
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>> heap;
    for (std::size_t i = lo; i < hi; ++i) {
      Session& s = states[i - lo];
      s.rng.reseed(session_seed(config_.seed, i));
      s.doc = cache_.get(key_of(i));  // pins the document across evictions
      s.start = start_of(i);
      s.walk.begin(s.start, policy, session_jitter_seed(config_.seed, i));
      if (config_.outage != nullptr) {
        s.outage = config_.outage->session_clone();
        s.outage_rng.reseed(session_outage_seed(config_.seed, i));
      }
      if (proxied) {
        s.px = std::make_unique<ProxyState>();
        s.px->edge.proxy_rng.reseed(session_proxy_seed(config_.seed, i));
        if (config_.proxy->origin_outage != nullptr) {
          s.px->origin = config_.proxy->origin_outage->session_clone();
          s.px->origin_rng.reseed(session_origin_seed(config_.seed, i));
        }
      }
      if (ts != nullptr) {
        s.crumbs = std::make_unique<CrumbLog>(tc.crumb_capacity);
        ts->add(obs::Channel::kSessionsStarted, s.start);
      }
      heap.push(Event{s.start, static_cast<std::uint32_t>(i)});
    }

    // Books a finished session: shard totals, trace candidates, metrics and
    // the optional per-session outcome.
    const auto finish = [&](std::uint32_t index, Session& s,
                            const sim::WalkPlan& plan) {
      const sim::TransferResult r = s.walk.result(plan);
      FleetResult& sum = tot.sums;
      sum.completed += r.completed ? 1 : 0;
      sum.gave_up += r.gave_up ? 1 : 0;
      sum.aborted_irrelevant += r.aborted_irrelevant ? 1 : 0;
      sum.degraded += r.degraded ? 1 : 0;
      sum.frames_sent += r.packets;
      sum.frames_lost += r.frames_lost;
      sum.rounds += r.rounds;
      sum.suspensions += r.suspensions;
      sum.bytes_sent +=
          static_cast<unsigned long long>(r.packets) * s.doc->frame_size;
      sum.content += r.content;
      sum.session_time_s += r.time;
      if (config_.tail_stats) tot.times.push_back(r.time);
      sum.backoff_s += r.backoff_s;
      sum.makespan_s = std::max(sum.makespan_s, s.start + r.time);
      sim::ProxyStats pstats;
      if (s.px != nullptr) {
        pstats = s.px->edge.stats;
        sum.proxy += session_totals(pstats);
      }
      if (ts != nullptr) {
        tot.retention.offer(index, s.start, r, std::move(s.crumbs));
      }
      if (session_time != nullptr) {
        session_time->observe(r.time);
        session_time_by[static_cast<int>(s.walk.end)]->observe(r.time);
      }
      if (config_.record_outcomes) {
        result.outcomes[index] = SessionOutcome{
            index, key_of(index), s.start,
            s.px != nullptr ? session_proxy_assignment(
                                  config_.seed, index, policy.proxy->proxies)
                            : 0,
            r, pstats};
      }
    };

    // Drain the heap: one event = one step of the session's walk, i.e. one
    // transmission round.
    while (!heap.empty()) {
      const Event ev = heap.top();
      heap.pop();
      Session& s = states[ev.index - lo];
      const CookedDocument& doc = *s.doc;
      sim::WalkPlan plan = policy;
      plan.clear_content = doc.clear_content.data();
      plan.total_content = doc.total_content;
      plan.m = static_cast<int>(doc.transmitter.m());
      plan.n = static_cast<int>(doc.transmitter.n());
      plan.time_per_frame =
          static_cast<double>(doc.frame_size) * 8.0 / config_.bandwidth_bps;
      SessionEnv env{s, config_.alpha};
      TelemetryObserver observer{{}, ts, s.crumbs.get()};
      s.walk.step_round(plan, env, observer);
      if (s.walk.done()) {
        finish(ev.index, s, plan);
      } else {
        heap.push(Event{s.walk.clock, ev.index});
      }
    }
  });

  // Merge in shard order: deterministic for a fixed shard count; integer
  // aggregates are order-independent, so they match across shard counts too.
  for (const ShardTotals& tot : totals) {
    const FleetResult& sum = tot.sums;
    for (const auto& f : kFleetCounterFields) result.*f.member += sum.*f.member;
    result.rounds += sum.rounds;
    result.bytes_sent += sum.bytes_sent;
    result.content += sum.content;
    result.session_time_s += sum.session_time_s;
    result.backoff_s += sum.backoff_s;
    result.makespan_s = std::max(result.makespan_s, sum.makespan_s);
    result.proxy += sum.proxy;
  }
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *config_.metrics;
    reg.counter("fleet.sessions").inc(static_cast<long>(sessions));
    for (const auto& f : kFleetCounterFields) {
      reg.counter(f.metric).inc(result.*f.member);
    }
    if (proxied) {
      for (const auto& f : kProxyTotalFields) {
        reg.counter(f.metric).inc(result.proxy.*f.member);
      }
    }
  }
  if (telem) {
    // Bucket merge: cells are integers accumulated with +=, so the merged
    // series is independent of shard count and merge order.
    result.timeseries = obs::TimeSeries(tc.bucket_width_s, tc.max_buckets);
    for (ShardTotals& tot : totals) {
      result.timeseries.merge(tot.sums.timeseries);
    }

    std::vector<TraceRetention> retentions;
    for (ShardTotals& tot : totals) {
      retentions.push_back(std::move(tot.retention));
    }
    result.traces =
        retained_traces(std::move(retentions), tail_target, tc.flight);
  }
  if (config_.tail_stats) {
    // summarize_tails sorts, so the outcome depends only on the multiset of
    // session times — the tail metrics inherit the engine's shard-invariance
    // bit-for-bit (pinned in tests/test_stats_workload.cpp).
    std::vector<double> times;
    times.reserve(sessions);
    for (ShardTotals& tot : totals) {
      times.insert(times.end(), tot.times.begin(), tot.times.end());
      tot.times.clear();
      tot.times.shrink_to_fit();
    }
    result.session_time_tails = stats::summarize_tails(times);
  }
  result.cache_hits = cache_.hits();
  result.cache_misses = cache_.misses();
  result.elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  return result;
}

}  // namespace mobiweb::fleet
