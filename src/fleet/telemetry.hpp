// Fleet telemetry: breadcrumb span logs, tail-based trace retention, and the
// exported timeline document.
//
// Watching a 100k-session run as it unfolds needs two things the end-of-run
// aggregates cannot give: time-bucketed metrics over the *simulated* clock
// (obs::TimeSeries, one per shard, merged order-independently) and full
// traces for the sessions that matter. Keeping a full obs::SessionTrace per
// session is out of the question at 1M sessions, so every in-flight session
// instead carries a CrumbLog — a fixed ring of the most recent span
// breadcrumbs (round boundaries, outage windows, cross-tier events, the
// terminal verdict). The ring lives in the session's engine slot and is
// cleared when the slot is recycled, so ring memory scales with peak
// concurrency, not with the session count. A finished session's ring is
// copied out only if TraceRetention keeps it: the slowest
// ceil(trace_top_fraction * sessions) sessions plus every degraded / gave-up
// session, materialized after the run into full SessionTraces that export
// through the Perfetto timeline_json with cross-tier span annotations.
//
// Everything here is deterministic: crumbs replay simulated timestamps, the
// tail selection breaks ties on (time desc, session asc), and the timeline
// document contains no wall-clock value — so a fixed (seed, sessions) run
// renders a bit-identical document at any shard count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

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

// One retained span breadcrumb. `aux` carries the small integer payload
// (round number, dropped-packet count); `value` the double one (durations,
// content). Round-closing crumbs (kRoundEnd, and the verdict of a round cut
// short) carry the round's frame tally instead: `corrupted` below, and
// sent / intact / lost packed into `aux` (see CrumbLog::push_round_close).
struct Crumb {
  obs::Event type = obs::Event::kSessionStart;
  std::uint16_t corrupted = 0;
  std::int32_t aux = 0;
  double time = 0.0;
  double value = 0.0;

  // The frame tally of a round-closing crumb; duplicates are the remainder.
  [[nodiscard]] sim::RoundTally tally() const {
    sim::RoundTally t;
    t.sent = aux & 1023;
    t.intact = (aux >> 10) & 1023;
    t.lost = (aux >> 20) & 1023;
    t.corrupted = corrupted;
    t.duplicate = t.sent - t.intact - t.corrupted - t.lost;
    return t;
  }
};
static_assert(sizeof(Crumb) == 24, "a crumb ring is 24 bytes per entry");

// Fixed-capacity ring of the most recent crumbs — the per-session analogue
// of obs::FlightRecorder. Overwrites oldest at capacity; O(1) per push, no
// allocation after construction, and clear() readies it for the next session
// without freeing it.
class CrumbLog {
 public:
  explicit CrumbLog(std::size_t capacity)
      : ring_(capacity == 0 ? 1 : capacity) {}

  void push(obs::Event type, double time, std::int32_t aux = 0,
            double value = 0.0) {
    append(Crumb{type, 0, aux, time, value});
  }

  // A round-closing crumb. Fleet rounds send at most kMaxCookedPackets (256)
  // frames, so sent / intact / lost take 10 bits apiece of `aux`.
  void push_round_close(obs::Event type, double time, double value,
                        const sim::RoundTally& tally) {
    append(Crumb{type, static_cast<std::uint16_t>(tally.corrupted),
                 tally.sent | tally.intact << 10 | tally.lost << 20, time,
                 value});
  }

  // Forgets every crumb; the ring keeps its storage.
  void clear() {
    next_ = 0;
    recorded_ = 0;
  }

  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  [[nodiscard]] long recorded() const { return recorded_; }
  [[nodiscard]] long dropped() const {
    const long cap = static_cast<long>(ring_.size());
    return recorded_ > cap ? recorded_ - cap : 0;
  }

  // Retained crumbs, oldest first.
  [[nodiscard]] std::vector<Crumb> snapshot() const;

 private:
  void append(const Crumb& crumb) {
    ring_[next_] = crumb;
    next_ = (next_ + 1) % ring_.size();
    ++recorded_;
  }

  std::vector<Crumb> ring_;
  std::size_t next_ = 0;
  long recorded_ = 0;
};

// The session walk's observer on the fleet path: time-bucketed channels on
// the shard's series plus the session's breadcrumb ring. With telemetry off
// `ts` is null and every hook is one null check.
struct TelemetryObserver : sim::NullObserver {
  obs::TimeSeries* ts = nullptr;
  CrumbLog* crumbs = nullptr;  // engaged whenever `ts` is

  void round_start(int round, double t) {
    if (ts != nullptr) crumbs->push(obs::Event::kRoundStart, t, round);
  }
  void frame_sent(int /*seq*/, double t) {
    if (ts != nullptr) ts->add(obs::Channel::kFramesSent, t);
  }
  void frame_lost(double t) {
    if (ts != nullptr) ts->add(obs::Channel::kFramesLost, t);
  }
  // A stalled round: the suspension_rate SLO's denominator, and the crumb the
  // materialized trace replays into a round span.
  void round_end(double t, double content, sim::RoundTally tally) {
    if (ts == nullptr) return;
    ts->add(obs::Channel::kRounds, t);
    crumbs->push_round_close(obs::Event::kRoundEnd, t, content, tally);
  }
  void outage_begin(double t) {
    if (ts != nullptr) crumbs->push(obs::Event::kOutageBegin, t);
  }
  void outage_end(double t, double duration) {
    if (ts == nullptr) return;
    ts->add(obs::Channel::kSuspensions, t);
    crumbs->push(obs::Event::kOutageEnd, t, 0, duration);
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
    if (ts == nullptr) return;
    ts->add(obs::Channel::kStaleServes, t);
    crumbs->push(obs::Event::kStaleFailover, t);
  }
  void origin_outage_begin(double t) {
    if (ts != nullptr) crumbs->push(obs::Event::kOriginOutageBegin, t);
  }
  void origin_outage_end(double t, double duration) {
    if (ts == nullptr) return;
    crumbs->push(obs::Event::kOriginOutageEnd, t, 0, duration);
  }
  void handoff(double t, double delay) {
    if (ts == nullptr) return;
    ts->add(obs::Channel::kHandoffs, t);
    crumbs->push(obs::Event::kHandoff, t, 0, delay);
  }
  void reconcile_drop(double t, int dropped) {
    if (ts == nullptr) return;
    ts->add(obs::Channel::kReconcileDrops, t, dropped);
    crumbs->push(obs::Event::kReconcileDrop, t, dropped);
  }
  // The verdict crumb goes last, so the ring always keeps it.
  void end(sim::WalkEnd how, double t, double received,
           sim::RoundTally open);
};

// A session whose full trace survived retention: the slowest tail or a
// degraded / gave-up failure (always kept).
struct RetainedTrace {
  std::uint32_t session = 0;
  double time_s = 0.0;        // transfer time — the tail ranking key
  bool failed = false;        // degraded or gave up
  obs::SessionTrace trace;    // materialized from the breadcrumb ring
  long crumbs_dropped = 0;    // oldest breadcrumbs the ring overwrote
};

// Tail ranking: slower first, session index breaks ties — total order, so
// the retained set is identical whatever order shards produced candidates.
[[nodiscard]] inline bool ranks_before(double time_a, std::uint32_t session_a,
                                       double time_b, std::uint32_t session_b) {
  if (time_a != time_b) return time_a > time_b;
  return session_a < session_b;
}

// Replays a breadcrumb ring into a full SessionTrace (events captured, so
// the timeline exporter can render outage / origin-outage / handoff spans).
// Crumbs that lost their opening partner to ring overwrite still render —
// the exporter falls back to duration-anchored spans.
[[nodiscard]] obs::SessionTrace materialize_trace(
    const std::string& label, double start_s,
    const sim::TransferResult& result, const CrumbLog& crumbs);

// The global tail-retention target k = ceil(top_fraction * sessions), capped
// at `sessions`. Bounded overhead: every shard retains at most k non-failed
// candidates, and the final cut keeps exactly k overall.
[[nodiscard]] std::size_t trace_tail_target(double top_fraction,
                                            std::size_t sessions);

// Tail-based trace retention for one shard's finished sessions: every
// degraded / gave-up session is kept unconditionally, the others compete for
// a bounded max-heap of the `tail_target` slowest (any global top-k member is
// necessarily within its own shard's top k). Only copies of the breadcrumb
// rings are held; retained_traces() materializes the survivors.
class TraceRetention {
 public:
  explicit TraceRetention(std::size_t tail_target = 0)
      : tail_target_(tail_target) {}

  // Copies `crumbs` only if the candidate is kept; a displaced tail entry's
  // ring is overwritten in place, so a full heap allocates nothing more.
  void offer(std::uint32_t session, double start,
             const sim::TransferResult& result, const CrumbLog& crumbs);

 private:
  friend std::vector<RetainedTrace> retained_traces(
      std::vector<TraceRetention> shards, std::size_t tail_target,
      obs::FlightRecorder* flight);

  // A finished session still in the running: its verdict, its ranking key
  // (result.time) and its breadcrumb ring.
  struct Candidate {
    std::uint32_t session = 0;
    double start = 0.0;
    sim::TransferResult result;
    CrumbLog crumbs;
  };

  std::size_t tail_target_;
  std::vector<Candidate> failed_;
  std::vector<Candidate> tail_;  // max-heap: the worst retained on top
};

// The fleet's retained traces: the global slowest tail_target sessions plus
// every failure, whatever the shard count, materialized and sorted by session
// index. With `flight` set, each failed trace is replayed into it and dumped
// (reason fleet.degraded / fleet.gave_up) — single-threaded, in session order.
[[nodiscard]] std::vector<RetainedTrace> retained_traces(
    std::vector<TraceRetention> shards, std::size_t tail_target,
    obs::FlightRecorder* flight);

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
