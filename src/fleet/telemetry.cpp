#include "fleet/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>

#include "fleet/engine.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"

namespace mobiweb::fleet {

namespace {

static_assert(kMaxCookedPackets < 1024,
              "CrumbLog::push_round_close packs round tallies 10 bits apiece");

// Crumbs pushed through CrumbLog::push_round_close.
bool is_round_close(obs::Event type) {
  return type == obs::Event::kRoundEnd || type == obs::Event::kDecodeComplete ||
         type == obs::Event::kAbortIrrelevant || type == obs::Event::kGiveUp ||
         type == obs::Event::kDegraded;
}

}  // namespace

std::vector<Crumb> CrumbLog::snapshot() const {
  std::vector<Crumb> out;
  const std::size_t cap = ring_.size();
  const std::size_t kept =
      recorded_ < static_cast<long>(cap) ? static_cast<std::size_t>(recorded_)
                                         : cap;
  out.reserve(kept);
  // Oldest retained crumb sits at next_ once the ring has wrapped.
  const std::size_t begin =
      recorded_ < static_cast<long>(cap) ? 0 : next_;
  for (std::size_t i = 0; i < kept; ++i) {
    out.push_back(ring_[(begin + i) % cap]);
  }
  return out;
}

void TelemetryObserver::end(sim::WalkEnd how, double t, double received,
                            sim::RoundTally open) {
  if (ts == nullptr) return;
  // The verdict crumb of each WalkEnd verdict, in enum order.
  constexpr obs::Event kVerdict[sim::kWalkVerdicts] = {
      obs::Event::kDecodeComplete, obs::Event::kAbortIrrelevant,
      obs::Event::kGiveUp, obs::Event::kDegraded};
  ts->add(obs::Channel::kSessionsEnded, t);
  if (how == sim::WalkEnd::kGaveUp || how == sim::WalkEnd::kDegraded) {
    ts->add(obs::Channel::kSessionsFailed, t);
  }
  crumbs->push_round_close(kVerdict[static_cast<int>(how)], t, received, open);
}

obs::SessionTrace materialize_trace(const std::string& label, double start_s,
                                    const sim::TransferResult& result,
                                    const CrumbLog& crumbs) {
  obs::SessionTrace trace(label);
  trace.capture_events(true);
  trace.session_start(start_s);
  for (const Crumb& c : crumbs.snapshot()) {
    if (is_round_close(c.type)) {
      const sim::RoundTally t = c.tally();
      trace.round_frames(t.sent, t.intact, t.corrupted, t.duplicate, t.lost);
    }
    switch (c.type) {
      case obs::Event::kRoundStart:
        trace.round_start(c.aux, c.time);
        break;
      case obs::Event::kRoundEnd:
        trace.round_end(c.time, c.value);
        break;
      case obs::Event::kOutageBegin:
        trace.outage_begin(c.time);
        break;
      case obs::Event::kOutageEnd:
        trace.outage_end(c.time, c.value);
        trace.resume(c.time);
        break;
      case obs::Event::kOriginOutageBegin:
        trace.origin_outage_begin(c.time);
        break;
      case obs::Event::kOriginOutageEnd:
        trace.origin_outage_end(c.time, c.value);
        break;
      case obs::Event::kStaleFailover:
        trace.stale_failover(c.time);
        break;
      case obs::Event::kHandoff:
        trace.handoff(c.time, c.value);
        break;
      case obs::Event::kReconcileDrop:
        trace.reconcile_drop(c.time, c.aux);
        break;
      case obs::Event::kDecodeComplete:
        trace.decode_complete(c.time);
        break;
      case obs::Event::kAbortIrrelevant:
        trace.abort_irrelevant(c.time, c.value);
        break;
      case obs::Event::kDegraded:
        trace.degraded(c.time, c.value);
        break;
      case obs::Event::kGiveUp:
        trace.give_up(c.time);
        break;
      default:
        // Frame-level events are never recorded as crumbs; anything else
        // (e.g. a kSessionStart from a future producer) is ignored so the
        // replay stays total over arbitrary rings.
        break;
    }
  }
  trace.session_end(start_s + result.time, result.content);
  return trace;
}

std::size_t trace_tail_target(double top_fraction, std::size_t sessions) {
  if (top_fraction <= 0.0) return 0;
  const auto k = static_cast<std::size_t>(
      std::ceil(top_fraction * static_cast<double>(sessions)));
  return std::min(k, sessions);
}

void TraceRetention::offer(std::uint32_t session, double start,
                           const sim::TransferResult& result,
                           std::unique_ptr<CrumbLog> crumbs) {
  Candidate cand{session, start, result, std::move(crumbs)};
  if (result.gave_up || result.degraded) {
    failed_.push_back(std::move(cand));
    return;
  }
  if (tail_target_ == 0) return;
  // "a ranks before b": slower first, index breaks ties. The heap keeps the
  // worst retained candidate at the front so it can be displaced.
  const auto before = [](const Candidate& a, const Candidate& b) {
    return ranks_before(a.result.time, a.session, b.result.time, b.session);
  };
  if (tail_.size() < tail_target_) {
    tail_.push_back(std::move(cand));
    std::push_heap(tail_.begin(), tail_.end(), before);
    return;
  }
  if (before(cand, tail_.front())) {
    std::pop_heap(tail_.begin(), tail_.end(), before);
    tail_.back() = std::move(cand);
    std::push_heap(tail_.begin(), tail_.end(), before);
  }
}

std::vector<RetainedTrace> retained_traces(std::vector<TraceRetention> shards,
                                           std::size_t tail_target,
                                           obs::FlightRecorder* flight) {
  // Global tail selection. Any global top-k non-failed session is within its
  // own shard's top k (its shard holds at most k-1 sessions ranking before
  // it), so gathering the per-shard heaps loses nothing. Failed sessions were
  // kept unconditionally. Sort by the total rank order and cut: the retained
  // set is exactly (global top-k) ∪ (failed), identical whatever the shard
  // count.
  std::vector<TraceRetention::Candidate> candidates;
  std::vector<char> is_failed;
  for (TraceRetention& shard : shards) {
    for (TraceRetention::Candidate& c : shard.failed_) {
      candidates.push_back(std::move(c));
      is_failed.push_back(1);
    }
    for (TraceRetention::Candidate& c : shard.tail_) {
      candidates.push_back(std::move(c));
      is_failed.push_back(0);
    }
  }
  std::vector<std::size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return ranks_before(candidates[a].result.time, candidates[a].session,
                        candidates[b].result.time, candidates[b].session);
  });
  std::vector<RetainedTrace> traces;
  std::size_t tail_kept = 0;
  for (const std::size_t idx : order) {
    const bool failed = is_failed[idx] != 0;
    const bool in_tail = tail_kept < tail_target;
    if (!failed && !in_tail) continue;
    if (in_tail) ++tail_kept;  // failed sessions occupy tail slots too
    const TraceRetention::Candidate& c = candidates[idx];
    std::string label = "session " + std::to_string(c.session);
    if (c.result.degraded) label += " [degraded]";
    else if (c.result.gave_up) label += " [gave_up]";
    else if (c.result.aborted_irrelevant) label += " [aborted]";
    traces.push_back(RetainedTrace{
        c.session, c.result.time, failed,
        materialize_trace(label, c.start, c.result, *c.crumbs),
        c.crumbs->dropped()});
  }
  // Stable presentation order: by session index, whatever rank order the cut
  // visited them in.
  std::sort(traces.begin(), traces.end(),
            [](const RetainedTrace& a, const RetainedTrace& b) {
              return a.session < b.session;
            });
  if (flight != nullptr) {
    for (const RetainedTrace& rt : traces) {
      if (!rt.failed) continue;
      flight->clear();
      bool gave_up = false;
      for (const obs::TraceEvent& e : rt.trace.events()) {
        flight->record(e);
        if (e.type == obs::Event::kGiveUp) gave_up = true;
      }
      flight->dump(gave_up ? "fleet.gave_up" : "fleet.degraded");
    }
  }
  return traces;
}

namespace {

using obs::Channel;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// num / (den_a + den_b + den_c) per bucket; NaN when the denominator is 0.
// Built purely from merged integer channels, so shard-invariant.
std::vector<double> ratio_series(const obs::TimeSeries& ts, Channel num,
                                 std::vector<Channel> den) {
  std::vector<double> out(ts.buckets(), kNaN);
  for (std::size_t i = 0; i < out.size(); ++i) {
    long d = 0;
    for (const Channel c : den) d += ts.at(c, i);
    if (d > 0) out[i] = static_cast<double>(ts.at(num, i)) / static_cast<double>(d);
  }
  return out;
}

std::vector<double> rate_series(const obs::TimeSeries& ts, Channel c) {
  std::vector<double> out(ts.buckets(), 0.0);
  const double w = ts.bucket_width_s();
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = w > 0.0 ? static_cast<double>(ts.at(c, i)) / w : 0.0;
  }
  return out;
}

// Sessions in flight at the close of each bucket: running Σstarted − Σended.
std::vector<double> in_flight_series(const obs::TimeSeries& ts) {
  std::vector<double> out(ts.buckets(), 0.0);
  long live = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    live += ts.at(Channel::kSessionsStarted, i) -
            ts.at(Channel::kSessionsEnded, i);
    out[i] = static_cast<double>(live);
  }
  return out;
}

void append_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out += buf;
}

}  // namespace

std::vector<DerivedSeries> derived_fleet_series(const obs::TimeSeries& ts) {
  std::vector<DerivedSeries> out;
  out.push_back({"sessions_in_flight", 0, in_flight_series(ts)});
  out.push_back({"frames_per_s", 0, rate_series(ts, Channel::kFramesSent)});
  // The raw series above ramp up and drain with the arrival process, so a
  // linear fit over them always "drifts" — they stay informational. The
  // ratio series below are stationary under a healthy run and are what the
  // SLO engine gates.
  out.push_back({"link_loss_fraction", -1,
                 ratio_series(ts, Channel::kFramesLost,
                              {Channel::kFramesSent})});
  out.push_back({"degraded_end_fraction", -1,
                 ratio_series(ts, Channel::kSessionsFailed,
                              {Channel::kSessionsEnded})});
  out.push_back({"suspension_rate", -1,
                 ratio_series(ts, Channel::kSuspensions, {Channel::kRounds})});
  out.push_back({"stale_serve_fraction", -1,
                 ratio_series(ts, Channel::kStaleServes,
                              {Channel::kReplicaHits, Channel::kStaleServes,
                               Channel::kOriginFetches})});
  out.push_back({"origin_up_fraction", 1,
                 ratio_series(ts, Channel::kOriginUp,
                              {Channel::kOriginProbes})});
  out.push_back({"replica_hit_fraction", 1,
                 ratio_series(ts, Channel::kReplicaHits,
                              {Channel::kReplicaHits,
                               Channel::kOriginFetches})});
  return out;
}

std::vector<stats::SloSeries> evaluate_fleet_slo(const obs::TimeSeries& ts,
                                                 double tolerance) {
  // Gate only inside the arrival window (through the last bucket that
  // started a session), discarding its first half as warmup. Outside that
  // span the ratio series drift for structural reasons, not regressions:
  //   * warmup — every session's link/origin chain starts in the up state,
  //     so loss and suspension ratios ramp from ~0 to their stationary value
  //     over the outage model's mixing time;
  //   * drain — after arrivals stop, the surviving sessions are
  //     disproportionately the slow ones riding out fades (survivorship).
  // Both bounds are derived from a merged integer channel, so the gated span
  // — and the verdict — is shard-invariant.
  std::size_t window = 0;
  for (std::size_t i = 0; i < ts.buckets(); ++i) {
    if (ts.at(Channel::kSessionsStarted, i) > 0) window = i + 1;
  }
  const std::size_t warmup = window / 2;
  std::vector<stats::SloSeries> out;
  for (DerivedSeries& d : derived_fleet_series(ts)) {
    if (d.direction != 0) {
      if (d.values.size() > window) d.values.resize(window);
      d.values.erase(d.values.begin(),
                     d.values.begin() +
                         static_cast<std::ptrdiff_t>(
                             std::min(warmup, d.values.size())));
    }
    out.push_back(stats::evaluate_slo_series(std::move(d.name), d.values,
                                             d.direction, tolerance));
  }
  return out;
}

std::string timeline_document(const FleetResult& result,
                              const FleetConfig& config) {
  const FleetTelemetryConfig tc =
      config.telemetry.value_or(FleetTelemetryConfig{});
  long failed_traces = 0;
  for (const RetainedTrace& rt : result.traces) {
    if (rt.failed) ++failed_traces;
  }

  // No wall-clock value and nothing shard-dependent may enter this document:
  // it is diffed byte-for-byte across shard counts.
  std::string out = "{\"schema\": \"mobiweb-timeline/1\",\n\"meta\": {";
  out += "\"sessions\": " + std::to_string(result.sessions);
  out += ", \"seed\": " + std::to_string(config.seed);
  out += ", \"trace_tail_target\": " + std::to_string(result.trace_tail_target);
  out += ", \"retained_traces\": " + std::to_string(result.traces.size());
  out += ", \"failed_traces\": " + std::to_string(failed_traces);
  out += "},\n\"timeseries\": " + result.timeseries.to_json();

  out += ",\n\"derived\": {";
  const std::vector<DerivedSeries> derived =
      derived_fleet_series(result.timeseries);
  for (std::size_t d = 0; d < derived.size(); ++d) {
    if (d) out += ", ";
    out += '"' + derived[d].name + "\": [";
    for (std::size_t i = 0; i < derived[d].values.size(); ++i) {
      if (i) out += ", ";
      const double v = derived[d].values[i];
      if (std::isfinite(v)) {
        append_number(out, v);
      } else {
        out += "null";  // undefined bucket (ratio with a zero denominator)
      }
    }
    out += ']';
  }
  out += '}';

  out += ",\n\"slo\": " +
         stats::slo_json(evaluate_fleet_slo(result.timeseries, tc.slo_tolerance),
                         tc.slo_tolerance);

  out += ",\n\"traceEvents\": [\n";
  bool first = true;
  obs::TimelineOptions options;
  int tid = 1;
  for (const RetainedTrace& rt : result.traces) {
    obs::append_timeline_events(rt.trace, tid, out, first, options);
    ++tid;
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

}  // namespace mobiweb::fleet
