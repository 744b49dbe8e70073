// Sharded discrete-event fleet engine: one server, 100k+ concurrent
// weakly-connected browsing sessions.
//
// The paper's evaluation simulates one client at a time; this engine answers
// the server-scale question — what does a γ-redundant multicast/unicast mix
// cost when tens of thousands of clients fetch from a shared corpus
// concurrently? Sessions are partitioned into contiguous shards; each shard
// owns a time-ordered event heap and the state of its slice of sessions and
// runs on one ThreadPool worker. Cooked packets come from a shared read-only
// fleet::DocumentCache (encode once per (document, γ), serve everyone).
//
// Each session embeds a sim::SessionWalk, the same resumable walk the
// analytic oracles (sim::simulate_transfer and friends) run to termination,
// so per-session results are bit-equal to the oracle run standalone with the
// same per-session seeds (tests/test_fleet.cpp pins this). One event = one
// step_round() = one transmission round (n frames). Fleet telemetry observes
// the walk through fleet::TelemetryObserver.
//
// Weak connectivity: when `config.outage` is set, every session owns a
// session_clone() of the prototype outage model, driven on the session's own
// link timeline (time since the session's start) by a dedicated per-session
// RNG stream, and the walk's link and retry policies engage (fades, suspend
// under backoff, degraded termination; see sim/walk.hpp). With
// `outage == nullptr` the walk is the plain always-up walk.
//
// Workload shape: `zipf_s > 0` replaces round-robin document assignment with
// a Zipf(s) popularity draw, and `arrival_rate_hz > 0` replaces the uniform
// `arrival_spread_s` stagger with a Poisson arrival process. Both draws
// depend only on (seed, i) / (seed), so they are deterministic and
// shard-invariant; both default off, reproducing today's workload exactly.
//
// Edge proxy tier: when `config.proxy` is set, sessions fetch through an
// edge proxy instead of straight from the origin: the walk's proxy policy
// engages, with the origin owning its own per-session OutageModel clone.
// Each session's proxy assignment and its proxy/origin RNG streams depend
// only on (seed, i), so proxied runs stay deterministic and shard-invariant,
// with per-session bit-parity against sim::simulate_proxied_transfer.
//
// Determinism: session i's RNGs (corruption, outage, jitter, document draw)
// are seeded from (seed, i) only, shard partials are merged in shard order,
// and event ties break on session index — so a fixed (seed, shards) pair
// reproduces the aggregate bit-for-bit, and every integer aggregate (plus
// the cache hit/miss counts) is invariant across shard counts.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "channel/outage.hpp"
#include "fleet/cache.hpp"
#include "fleet/telemetry.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "sim/proxied.hpp"
#include "sim/transfer.hpp"
#include "stats/describe.hpp"
#include "util/thread_pool.hpp"

namespace mobiweb::fleet {

// Edge proxy tier configuration (FleetConfig::proxy). The analytic model
// shape is shared with the oracle; the origin gets its own outage prototype,
// cloned per session exactly like the wireless-link model.
struct FleetProxyConfig {
  sim::ProxyModelConfig model;
  // Origin failure domain, independent of the wireless link. nullptr =
  // origin always reachable (replicas only ever refresh, never fail over).
  std::shared_ptr<const channel::OutageModel> origin_outage;
};

// Fleet telemetry (FleetConfig::telemetry): time-bucketed counters over the
// simulated clock plus tail-based trace retention (see fleet/telemetry.hpp).
// Everything it produces is a pure function of (config, seed) — the exported
// timeline document is bit-identical across shard counts.
struct FleetTelemetryConfig {
  double bucket_width_s = 1.0;      // simulated seconds per bucket
  std::size_t max_buckets = 4096;   // adds past the window clamp into the last
  // After the run, the slowest ceil(trace_top_fraction * sessions) sessions
  // plus every degraded / gave-up session are materialized into full traces
  // (FleetResult::traces); everyone else only ever carries a fixed breadcrumb
  // ring, so trace memory stays bounded at 1M sessions.
  double trace_top_fraction = 0.01;
  std::size_t crumb_capacity = 32;  // per-session breadcrumb ring entries
  double slo_tolerance = 0.5;       // relative drift allowed by the SLO gate
  // Optional postmortem sink: every retained degraded / gave-up trace is
  // replayed into this recorder and dumped through its sink after the run
  // (post-merge, single-threaded — the recorder itself is not thread-safe).
  obs::FlightRecorder* flight = nullptr;
};

struct FleetConfig {
  CacheConfig corpus;                // corpus shape + seed + LOD
  std::size_t sessions = 10000;
  std::size_t shards = 0;            // 0 = pool concurrency
  std::uint64_t seed = 1;            // fleet seed (sessions draw from (seed, i))
  std::vector<double> gammas = {1.5};  // session i uses gammas[i % size]
  double alpha = 0.1;                // per-frame corruption probability
  bool caching = true;               // client keeps intact packets across rounds
  double relevance_threshold = -1.0; // F; < 0 = full download
  double bandwidth_bps = 19200.0;    // per-client link rate
  double request_delay = 1.0;        // seconds per stalled-round request
  int max_rounds = 25;
  double arrival_spread_s = 0.0;     // session starts staggered over [0, spread)
  bool record_outcomes = false;      // keep per-session results (tests; O(sessions) memory)
  // Collect every session's transfer time and summarize the distribution in
  // FleetResult::session_time_tails (p50/p95/p99/p999 + Student-t CI). Costs
  // 8 bytes per session while the run is live; the summary is a pure function
  // of the sample multiset, so it is bit-identical across shard counts.
  bool tail_stats = true;
  obs::MetricsRegistry* metrics = nullptr;  // optional; shards record concurrently

  // Weak connectivity: prototype outage model cloned per session (see the
  // header comment). nullptr = link always up, legacy bit-identical walk.
  std::shared_ptr<const channel::OutageModel> outage;
  sim::RetryConfig retry;            // suspend/backoff policy; used iff `outage`
  // Workload shape. zipf_s > 0: document popularity ~ Zipf(s) over the corpus
  // (0 = round-robin). arrival_rate_hz > 0: Poisson session arrivals at this
  // rate (0 = uniform stagger over arrival_spread_s).
  double zipf_s = 0.0;
  double arrival_rate_hz = 0.0;
  // Edge proxy tier (see the header comment). nullopt = sessions talk to the
  // origin directly, legacy bit-identical walk. When set, `retry` governs the
  // origin-fade backoff too, whether or not `outage` is also set.
  std::optional<FleetProxyConfig> proxy;
  // Fleet telemetry: time-bucketed metrics + tail-based trace retention.
  // nullopt (the default) records nothing and adds nothing to the hot path
  // beyond one null check per frame. Never alters session draws or results.
  std::optional<FleetTelemetryConfig> telemetry;
};

struct SessionOutcome {
  std::uint32_t session = 0;
  CacheKey key;
  double start_s = 0.0;
  std::uint32_t proxy_id = 0;  // assigned edge proxy (proxied runs only)
  sim::TransferResult result;
  sim::ProxyStats proxy;       // zeros unless FleetConfig::proxy engaged
};

// Fleet-wide edge-tier aggregates (sums of the per-session ProxyStats).
struct FleetProxyTotals {
  long replica_hits = 0;
  long stale_serves = 0;
  long failovers = 0;
  long handoffs = 0;
  long origin_fetches = 0;
  long origin_suspensions = 0;
  long reconciliations = 0;
  long packets_refetched = 0;
  long stale_frames = 0;
  long sessions_ended_stale = 0;  // final serving replica was stale-flagged
  long origin_generation_bumps = 0;   // live replicas refreshed past a stale gen
  long reconcile_dropped_packets = 0; // held packets dropped by reconciliation

  FleetProxyTotals& operator+=(const FleetProxyTotals& other);
};

struct FleetResult {
  std::size_t sessions = 0;
  std::size_t shards = 0;
  long completed = 0;
  long gave_up = 0;
  long aborted_irrelevant = 0;
  long degraded = 0;                   // retry budget / deadline exhausted
  long frames_sent = 0;
  long frames_lost = 0;                // frames swallowed by link fades
  long rounds = 0;
  long suspensions = 0;                // suspend→resume cycles across the fleet
  double backoff_s = 0.0;              // Σ time sessions spent suspended
  unsigned long long bytes_sent = 0;   // wire bytes (frames × frame size)
  double content = 0.0;                // Σ per-session information content
  double session_time_s = 0.0;         // Σ per-session transfer times
  double makespan_s = 0.0;             // last session end on the simulated clock
  long cache_hits = 0;
  long cache_misses = 0;
  double elapsed_s = 0.0;              // engine wall time
  // Distribution of per-session transfer times (exact order statistics over
  // the whole fleet; zeroed when FleetConfig::tail_stats is off). This is
  // what bench_fleet exports as session_time_s_{p50,p95,p99,p999,mean,ci95}
  // and what the perf gate compares tail-first.
  stats::TailSummary session_time_tails;
  FleetProxyTotals proxy;                // zeros unless FleetConfig::proxy
  std::vector<SessionOutcome> outcomes;  // empty unless record_outcomes
  // Telemetry products; disengaged/empty unless FleetConfig::telemetry.
  // The merged time series is bit-identical across shard counts; the retained
  // traces are the slowest trace_tail_target sessions plus every degraded /
  // gave-up session, sorted by session index.
  obs::TimeSeries timeseries;
  std::vector<RetainedTrace> traces;
  std::size_t trace_tail_target = 0;     // k used for the tail selection

  [[nodiscard]] double sessions_per_s() const {
    return elapsed_s > 0.0 ? static_cast<double>(sessions) / elapsed_s : 0.0;
  }
  [[nodiscard]] double frames_per_s() const {
    return elapsed_s > 0.0 ? static_cast<double>(frames_sent) / elapsed_s : 0.0;
  }
  // Offered load on the simulated clock: aggregate wire Mbps across clients.
  [[nodiscard]] double aggregate_mbps() const {
    return makespan_s > 0.0
               ? static_cast<double>(bytes_sent) * 8.0 / makespan_s / 1e6
               : 0.0;
  }
};

// Deterministic per-session RNG seed; depends on (seed, session index) only.
std::uint64_t session_seed(std::uint64_t fleet_seed, std::uint64_t session);
// Independent per-session streams for the outage model, the backoff jitter,
// and the Zipf document draw (distinct salts over session_seed), plus the
// fleet-wide arrival-process seed. Exposed so parity tests can reproduce a
// session's exact draw sequence outside the engine.
std::uint64_t session_outage_seed(std::uint64_t fleet_seed, std::uint64_t session);
std::uint64_t session_jitter_seed(std::uint64_t fleet_seed, std::uint64_t session);
std::uint64_t session_zipf_seed(std::uint64_t fleet_seed, std::uint64_t session);
std::uint64_t fleet_arrival_seed(std::uint64_t fleet_seed);
// Edge tier streams: the warm-replica/age/handoff draws and the origin's
// outage-model clone each get their own salted stream, and the session's
// proxy assignment is a deterministic hash into the pool — all functions of
// (seed, i) only, like every other per-session stream.
std::uint64_t session_proxy_seed(std::uint64_t fleet_seed, std::uint64_t session);
std::uint64_t session_origin_seed(std::uint64_t fleet_seed, std::uint64_t session);
std::uint32_t session_proxy_assignment(std::uint64_t fleet_seed,
                                       std::uint64_t session,
                                       std::uint32_t proxies);

class FleetEngine {
 public:
  explicit FleetEngine(FleetConfig config);

  // Prefills the cache (batched), then runs every session to termination on
  // `pool` (global pool when nullptr). Reentrant-safe: may itself be called
  // from inside a pool task (the nested run executes inline).
  FleetResult run(ThreadPool* pool = nullptr);

  [[nodiscard]] DocumentCache& cache() { return cache_; }
  [[nodiscard]] const FleetConfig& config() const { return config_; }

 private:
  FleetConfig config_;
  DocumentCache cache_;
};

}  // namespace mobiweb::fleet
