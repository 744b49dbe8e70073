// Fleet telemetry: time-bucketed observers, tail-based trace retention by
// deterministic replay, and the exported timeline document.
//
// Watching a 100k-session run as it unfolds needs two things the end-of-run
// aggregates cannot give: time-bucketed metrics over the *simulated* clock
// (obs::TimeSeries, one per shard, merged order-independently) and full
// traces for the sessions that matter. Keeping a full obs::SessionTrace per
// session is out of the question at 1M sessions, and none is needed: every
// fleet session is a pure function of (seed, i) through sim::SessionWalk. So
// a finished session records nothing but its verdict, offered to its shard's
// TraceRetention. After the run, select_retained() cuts the slowest
// ceil(trace_top_fraction * sessions) sessions plus every degraded / gave-up
// session, and the engine replays exactly those through the same walk,
// observed by RetainedTraceObserver into full SessionTraces that export
// through the Perfetto timeline_json with cross-tier span annotations. A
// replayed trace holds the session's whole history, however many rounds it
// ran.
//
// Everything here is deterministic: the replay reproduces simulated
// timestamps, the tail selection breaks ties on (time desc, session asc), and
// the timeline document contains no wall-clock value — so a fixed
// (seed, sessions) run renders a bit-identical document at any shard count.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/cache.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/transfer.hpp"
#include "sim/walk.hpp"
#include "stats/slo.hpp"

namespace mobiweb::obs {
class FlightRecorder;
}  // namespace mobiweb::obs

namespace mobiweb::fleet {

struct FleetConfig;
struct FleetResult;

// The session walk's observer on the fleet path: time-bucketed channels on
// the shard's series. With telemetry off `ts` is null and every hook is one
// null check.
struct TelemetryObserver : sim::NullObserver {
  obs::TimeSeries* ts = nullptr;

  void frame_sent(int /*seq*/, double t) {
    if (ts != nullptr) ts->add(obs::Channel::kFramesSent, t);
  }
  void frame_lost(double t) {
    if (ts != nullptr) ts->add(obs::Channel::kFramesLost, t);
  }
  // A stalled round: the suspension_rate SLO's denominator.
  void round_end(double t, double /*content*/, sim::RoundTally /*tally*/) {
    if (ts != nullptr) ts->add(obs::Channel::kRounds, t);
  }
  void outage_end(double t, double /*duration*/) {
    if (ts != nullptr) ts->add(obs::Channel::kSuspensions, t);
  }
  void origin_probe(double t, bool up) {
    if (ts == nullptr) return;
    ts->add(obs::Channel::kOriginProbes, t);
    if (up) ts->add(obs::Channel::kOriginUp, t);
  }
  void replica_hit(double t) {
    if (ts != nullptr) ts->add(obs::Channel::kReplicaHits, t);
  }
  void origin_fetch(double t) {
    if (ts != nullptr) ts->add(obs::Channel::kOriginFetches, t);
  }
  void stale_failover(double t) {
    if (ts != nullptr) ts->add(obs::Channel::kStaleServes, t);
  }
  void handoff(double t, double /*delay*/) {
    if (ts != nullptr) ts->add(obs::Channel::kHandoffs, t);
  }
  void reconcile_drop(double t, int dropped) {
    if (ts != nullptr) ts->add(obs::Channel::kReconcileDrops, t, dropped);
  }
  void end(sim::WalkEnd how, double t, double /*received*/,
           sim::RoundTally /*open*/) {
    if (ts == nullptr) return;
    ts->add(obs::Channel::kSessionsEnded, t);
    if (how == sim::WalkEnd::kGaveUp || how == sim::WalkEnd::kDegraded) {
      ts->add(obs::Channel::kSessionsFailed, t);
    }
  }
};

// The replay's observer: a retained session's span-level trace. Rounds carry
// the walk's per-round frame tally (round_frames, no per-frame events), plus
// the outage, cross-tier and verdict events. The oracles' per-frame trace
// observer lives in sim/walk.cpp.
struct RetainedTraceObserver : sim::NullObserver {
  obs::SessionTrace& trace;

  void round_start(int round, double t) { trace.round_start(round, t); }
  void round_end(double t, double content, sim::RoundTally tally) {
    add_frames(tally);
    trace.round_end(t, content);
  }
  void outage_begin(double t) { trace.outage_begin(t); }
  void outage_end(double t, double duration) {
    trace.outage_end(t, duration);
    trace.resume(t);
  }
  void stale_failover(double t) { trace.stale_failover(t); }
  void origin_outage_begin(double t) { trace.origin_outage_begin(t); }
  void origin_outage_end(double t, double duration) {
    trace.origin_outage_end(t, duration);
  }
  void handoff(double t, double delay) { trace.handoff(t, delay); }
  void reconcile_drop(double t, int dropped) {
    trace.reconcile_drop(t, dropped);
  }
  // The verdict closes the round it cut short (an empty tally otherwise).
  void end(sim::WalkEnd how, double t, double received, sim::RoundTally open);

 private:
  void add_frames(const sim::RoundTally& tally) {
    trace.round_frames(tally.sent, tally.intact, tally.corrupted,
                       tally.duplicate, tally.lost);
  }
};

// A session whose full trace survived retention: the slowest tail or a
// degraded / gave-up failure (always kept).
struct RetainedTrace {
  std::uint32_t session = 0;
  double time_s = 0.0;        // transfer time — the tail ranking key
  bool failed = false;        // degraded or gave up
  obs::SessionTrace trace;    // replayed after the run
};

// Tail ranking: slower first, session index breaks ties — total order, so
// the retained set is identical whatever order shards produced candidates.
[[nodiscard]] inline bool ranks_before(double time_a, std::uint32_t session_a,
                                       double time_b, std::uint32_t session_b) {
  if (time_a != time_b) return time_a > time_b;
  return session_a < session_b;
}

// The global tail-retention target k = ceil(top_fraction * sessions), capped
// at `sessions`. Bounded overhead: every shard retains at most k non-failed
// candidates, and the final cut keeps exactly k overall.
[[nodiscard]] std::size_t trace_tail_target(double top_fraction,
                                            std::size_t sessions);

// A finished session in the running for retention: its verdict and ranking
// key (result.time), and its document, pinned so the replay needs no second
// cache lookup.
struct TraceCandidate {
  std::uint32_t session = 0;
  double start = 0.0;
  sim::TransferResult result;
  std::shared_ptr<const CookedDocument> doc;

  [[nodiscard]] bool failed() const { return result.gave_up || result.degraded; }
};

// Tail-based trace retention for one shard's finished sessions: every
// degraded / gave-up session is kept unconditionally, the others compete for
// a bounded max-heap of the `tail_target` slowest (any global top-k member is
// necessarily within its own shard's top k). Candidates hold no history: the
// engine replays the survivors of select_retained().
class TraceRetention {
 public:
  explicit TraceRetention(std::size_t tail_target = 0)
      : tail_target_(tail_target) {}

  // Copies `doc` only if the candidate is kept.
  void offer(std::uint32_t session, double start,
             const sim::TransferResult& result,
             const std::shared_ptr<const CookedDocument>& doc);

 private:
  friend std::vector<TraceCandidate> select_retained(
      std::vector<TraceRetention> shards, std::size_t tail_target);

  std::size_t tail_target_;
  std::vector<TraceCandidate> failed_;
  std::vector<TraceCandidate> tail_;  // max-heap: the worst retained on top
};

// The fleet's retained sessions: the global slowest tail_target sessions plus
// every failure, whatever the shard count, sorted by session index.
[[nodiscard]] std::vector<TraceCandidate> select_retained(
    std::vector<TraceRetention> shards, std::size_t tail_target);

// A retained session's trace before its replay: labelled with the session
// and its verdict, events captured (so the timeline exporter can render
// outage / origin-outage / handoff spans), started at the session's start.
[[nodiscard]] RetainedTrace start_retained_trace(const TraceCandidate& c);

// Feeds each failed trace's events into `flight` and dumps it (reason
// fleet.degraded / fleet.gave_up), in the order given.
void dump_failed_traces(const std::vector<RetainedTrace>& traces,
                        obs::FlightRecorder& flight);

// One derived per-bucket series: integer-channel ratios (or rates), computed
// from the merged TimeSeries only, so they are shard-invariant by
// construction. NaN marks buckets where the metric is undefined.
struct DerivedSeries {
  std::string name;
  int direction = 0;  // SLO direction: +1 higher-better, -1 lower, 0 info
  std::vector<double> values;
};

// The standard fleet dashboard: sessions in flight, frames/s, and the
// stationary ratio series the SLO engine gates (loss, degraded-end,
// suspension, stale-serve, origin-up, replica-hit fractions).
[[nodiscard]] std::vector<DerivedSeries> derived_fleet_series(
    const obs::TimeSeries& ts);

// SLO verdicts for every derived series at the given drift tolerance.
[[nodiscard]] std::vector<stats::SloSeries> evaluate_fleet_slo(
    const obs::TimeSeries& ts, double tolerance);

// The whole timeline document ("mobiweb-timeline/1"): meta, the raw integer
// time series, the derived ratio series, the SLO verdict, and the retained
// traces as Perfetto traceEvents — loadable directly in ui.perfetto.dev.
// Contains no wall-clock value and nothing shard-dependent: bit-identical
// across shard counts for a fixed (seed, sessions) run.
[[nodiscard]] std::string timeline_document(const FleetResult& result,
                                            const FleetConfig& config);

}  // namespace mobiweb::fleet
