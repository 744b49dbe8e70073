// Structured per-session event tracing for the transmit layer.
//
// A SessionTrace records what happened to one document transfer, round by
// round: frames sent and how each was classified at the client (intact /
// corrupted / duplicate / foreign), round boundaries with channel timestamps,
// retransmission requests, and the terminal event (decode-complete, abort,
// give-up). Per-round aggregates (RoundSummary) are always maintained; the
// full per-frame event log is opt-in via capture_events(true) because a
// 25-round lossy session emits thousands of events.
//
// Producers (TransferSession, ArqSession, broadcast::listen_for,
// sim::simulate_transfer) hold a `SessionTrace*` that defaults to nullptr —
// the no-op sink. aggregate_trace() folds a finished trace into the standard
// histograms of a MetricsRegistry so experiment runners can build
// per-condition distributions; Collector bundles a registry with the traces
// it aggregated and exports both as one JSON document.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace mobiweb::obs {

class FlightRecorder;

enum class Event : std::uint8_t {
  kSessionStart,
  kRoundStart,
  kFrameSent,
  kFrameIntact,
  kFrameCorrupted,
  kFrameDuplicate,
  kFrameForeign,
  kFrameLost,          // swallowed by a link outage, never arrived
  kRetransmitRequest,
  kRoundEnd,
  kOutageBegin,        // client observed the link go dead
  kOutageEnd,          // link back; value = outage duration so far observed
  kBackoff,            // client backed off before re-requesting; value = wait
  kResume,             // transfer resumed from the intact-packet cache
  kDecodeComplete,
  kAbortIrrelevant,
  kDegraded,           // retry budget/deadline exhausted: partial delivery
  kGiveUp,
  kOriginOutageBegin,  // origin unreachable and no replica to fail over to
  kOriginOutageEnd,    // origin back; value = origin outage duration observed
  kStaleFailover,      // proxy served a stale-flagged replica (origin down)
  kHandoff,            // cell handoff to another proxy; value = handoff delay
  kReconcileDrop,      // reconciliation dropped held packets; value = count
  kSessionEnd,         // keep last: kEventCount is derived from it
};

// Number of Event enumerators. A static_assert in trace.cpp pins this to the
// event_name() switch, so adding an enumerator without naming it (and without
// the timeline exporter learning about it) fails to compile.
inline constexpr std::size_t kEventCount =
    static_cast<std::size_t>(Event::kSessionEnd) + 1;

// Distinct non-null name for every enumerator; "unknown" only for values
// outside the enum (e.g. a corrupted serialized event).
[[nodiscard]] const char* event_name(Event e);

struct TraceEvent {
  Event type = Event::kSessionStart;
  double time = 0.0;   // channel time; frame events use the arrival time
  int round = 0;
  long seq = -1;       // cooked-packet sequence number, -1 when n/a
  double value = 0.0;  // content received / pending count, event-dependent
};

struct RoundSummary {
  int round = 0;
  double start_time = 0.0;
  double end_time = 0.0;
  long frames_sent = 0;
  long frames_intact = 0;     // newly useful intact frames
  long frames_corrupted = 0;  // failed CRC / undecodable
  long frames_duplicate = 0;  // intact but already held
  long frames_foreign = 0;    // intact but for another document
  long frames_lost = 0;       // lost to a link outage (never arrived)
  double content_end = 0.0;   // information content when the round closed

  [[nodiscard]] double latency() const { return end_time - start_time; }
};

class SessionTrace {
 public:
  SessionTrace() = default;
  explicit SessionTrace(std::string label) : label_(std::move(label)) {}

  void set_label(std::string label) { label_ = std::move(label); }
  [[nodiscard]] const std::string& label() const { return label_; }

  // Enables the full per-frame event log (round summaries are always kept).
  void capture_events(bool on) { capture_events_ = on; }

  // Mirrors every event into `flight` (a fixed-size ring of recent events)
  // regardless of the capture mode, so postmortems don't need the unbounded
  // log. nullptr detaches. Like the capture mode, survives clear().
  void set_flight(FlightRecorder* flight) { flight_ = flight; }
  [[nodiscard]] FlightRecorder* flight() const { return flight_; }

  // Forgets everything recorded (label and capture mode persist), so one
  // trace object can be reused across many transfers.
  void clear();

  // -- recording API (called by the instrumented transmit/sim/broadcast code)
  void session_start(double time);
  void round_start(int round, double time);
  void frame_sent(long seq, double time);
  void frame_intact(long seq, double time, double content);
  void frame_corrupted(double time);
  void frame_duplicate(long seq, double time);
  void frame_foreign(double time);
  void frame_lost(double time);
  void retransmit_request(double time, long pending = -1);
  // content >= 0 also records the round's closing information content (the
  // real stack reaches it through frame_intact; replayed breadcrumbs don't).
  void round_end(double time, double content = -1.0);
  // Adds frame counts to the open round (no-op before any round) without
  // per-frame events: a round replayed from a tally (fleet breadcrumbs).
  void round_frames(long sent, long intact, long corrupted, long duplicate,
                    long lost);
  void outage_begin(double time);
  void outage_end(double time, double duration_s);
  void backoff(double time, double wait_s);
  void resume(double time);
  // -- cross-tier events (edge proxy / origin domain)
  void origin_outage_begin(double time);
  void origin_outage_end(double time, double duration_s);
  void stale_failover(double time);
  void handoff(double time, double delay_s);
  void reconcile_drop(double time, long dropped);
  void decode_complete(double time);
  void abort_irrelevant(double time, double content);
  void degraded(double time, double content);
  void give_up(double time);
  void session_end(double time, double content);

  // -- results
  [[nodiscard]] const std::vector<RoundSummary>& rounds() const { return rounds_; }
  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }
  [[nodiscard]] bool completed() const { return completed_; }
  [[nodiscard]] bool aborted_irrelevant() const { return aborted_; }
  [[nodiscard]] bool gave_up() const { return gave_up_; }
  [[nodiscard]] bool degraded() const { return degraded_; }
  [[nodiscard]] int outage_count() const { return outage_count_; }
  [[nodiscard]] int origin_outage_count() const { return origin_outage_count_; }
  [[nodiscard]] int stale_failover_count() const { return stale_failover_count_; }
  [[nodiscard]] int handoff_count() const { return handoff_count_; }
  [[nodiscard]] long reconcile_dropped() const { return reconcile_dropped_; }
  [[nodiscard]] int backoff_count() const { return backoff_count_; }
  [[nodiscard]] double backoff_total_s() const { return backoff_total_s_; }
  [[nodiscard]] double start_time() const { return start_time_; }
  [[nodiscard]] double end_time() const { return end_time_; }
  [[nodiscard]] double response_time() const { return end_time_ - start_time_; }
  [[nodiscard]] double final_content() const { return final_content_; }
  [[nodiscard]] long frames_sent() const;

  // {"label": ..., "completed": ..., "rounds": [RoundSummary...],
  //  "events": [...] (only when captured)}
  [[nodiscard]] std::string to_json() const;

 private:
  void push(Event type, double time, long seq, double value);
  RoundSummary& round_at(double time);

  std::string label_;
  bool capture_events_ = false;
  FlightRecorder* flight_ = nullptr;
  std::vector<TraceEvent> events_;
  std::vector<RoundSummary> rounds_;
  double start_time_ = 0.0;
  double end_time_ = 0.0;
  double final_content_ = 0.0;
  bool completed_ = false;
  bool aborted_ = false;
  bool gave_up_ = false;
  bool degraded_ = false;
  int outage_count_ = 0;
  int origin_outage_count_ = 0;
  int stale_failover_count_ = 0;
  int handoff_count_ = 0;
  long reconcile_dropped_ = 0;
  int backoff_count_ = 0;
  double backoff_total_s_ = 0.0;
};

// Folds one finished trace into the standard transmit histograms/counters of
// `registry` (names under "session." / "round."): response time, rounds per
// session, per-round latency and intact/corrupted counts, content progress,
// and outcome counters. Calling it per transfer with one registry per
// experimental condition yields per-condition histograms.
void aggregate_trace(const SessionTrace& trace, MetricsRegistry& registry);

// A metrics registry plus the traces that were aggregated into it — what a
// bench or experiment attaches to get the whole observability stack at once.
class Collector {
 public:
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }

  // Opens a trace for one transfer; references stay valid (deque).
  SessionTrace& begin_trace(std::string label);
  // Aggregates the finished trace into metrics().
  void finish_trace(const SessionTrace& trace) { aggregate_trace(trace, metrics_); }

  [[nodiscard]] const std::deque<SessionTrace>& traces() const { return traces_; }

  // {"metrics": {...}, "traces": [...]}
  [[nodiscard]] std::string to_json() const;

 private:
  MetricsRegistry metrics_;
  std::deque<SessionTrace> traces_;
};

}  // namespace mobiweb::obs
