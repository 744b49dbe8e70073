// The session walk: the paper's per-document transfer (§4.2) as one
// resumable state machine, advanced one transmission round at a time.
//
// Each round sends the n cooked packets and ends one of three ways: M intact
// packets reconstruct the document (condition 1), the user aborts at the
// relevance threshold F (condition 3), or the round stalls and the client
// asks for a retransmission (condition 2). Three policies around that round
// body are each optional:
//   * link — a frame sent into a fade is lost outright, airtime charged;
//   * retry — a stalled round that ends inside a fade suspends the client
//     under exponential backoff + jitter until the link is observed up; every
//     request consumes retry budget, and an exhausted budget or deadline ends
//     the walk degraded with the partial content. Without it the walk is the
//     plain TransferSession walk: a lost request costs one more request_delay;
//   * proxy — the client fetches through an edge proxy: replica attach and
//     validation against an origin with its own failure domain, stale-but-
//     flagged failover, per-stalled-round cell handoffs, and reconnect
//     reconciliation of the partial cache (requires the retry policy).
//
// simulate_transfer, simulate_resilient_transfer and
// simulate_proxied_transfer run the walk to termination (walk_to_end); the
// fleet engine embeds one SessionWalk per session and steps it once per
// event. Oracle parity holds by construction: there is one round body.
//
// step_round takes two compile-time parameters, so neither adds an indirect
// call to the fleet's frame path. The Env supplies the draws and edge state:
//   bool corrupted();            // next delivered frame's corruption draw
//   bool link_down(double t);    // link policy at link time t; false if none
//   bool feedback_lost();        // request lost on the back channel
//   bool origin_up(double t);    // origin policy; true if none
//   EdgeState* edge();           // the proxied walk's state; nullptr = direct
// The Observer receives the walk's events; see NullObserver.
//
// Draw order is part of the contract: link queries, corruption, jitter and
// proxy draws happen in exactly the sequence transmit::ResilientSession and
// the proxied driver make them, which keeps per-session parity exact.
#pragma once

#include <algorithm>
#include <bitset>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/proxied.hpp"
#include "sim/transfer.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace mobiweb::sim {

// Config checks, shared by the oracles and fleet::FleetEngine.
void validate(const TransferConfig& config);
void validate(const RetryConfig& retry);
void validate(const ProxyModelConfig& proxy);

// Per-frame Bernoulli(config.alpha) corruption draws from `rng`.
std::function<bool()> bernoulli_draws(const TransferConfig& config, Rng& rng);

// How a walk ended. The verdicts come first so they can index arrays.
enum class WalkEnd : std::uint8_t {
  kCompleted,
  kAbortedIrrelevant,
  kGaveUp,
  kDegraded,
  kRunning,
};
inline constexpr int kWalkVerdicts = 4;

// What a walk reads and never changes: the document and the policies.
struct WalkPlan {
  const double* clear_content = nullptr;  // m entries
  double total_content = 0.0;
  int m = 0;
  int n = 0;
  double time_per_frame = 0.0;
  double request_delay = 0.0;
  double relevance_threshold = -1.0;  // F; < 0 = full download
  int max_rounds = 25;
  bool caching = true;
  const RetryConfig* retry = nullptr;       // nullptr = plain walk
  const ProxyModelConfig* proxy = nullptr;  // nullptr = direct to the origin
};

// One round's frames and how the client classified them.
struct RoundTally {
  int sent = 0;
  int intact = 0;     // newly useful
  int corrupted = 0;
  int duplicate = 0;  // intact but already held
  int lost = 0;       // swallowed by a link fade
};

// Receipt sets: the fleet holds std::bitset<kMaxCookedPackets> inline, the
// oracles (which accept n > 256) a std::vector<bool> of size n.
template <std::size_t N>
void clear_receipts(std::bitset<N>& seen) { seen.reset(); }
inline void clear_receipts(std::vector<bool>& seen) {
  std::fill(seen.begin(), seen.end(), false);
}

// The proxied walk's serving-replica state. Invariant: every packet the
// client holds was fetched under generation `held_gen` (reconcile drops the
// cache before it can change), so staleness is one per-session flag.
struct EdgeState {
  Rng proxy_rng{0};  // warm/age/handoff draws
  bool has_replica = false;
  bool serving_stale = false;
  std::uint64_t replica_gen = 0;
  std::uint64_t held_gen = 0;
  ProxyStats stats;
};

// Observer that ignores everything. Observers derive from it and hide the
// hooks they need; times are on the walk's observer clock.
struct NullObserver {
  void round_start(int /*round*/, double /*t*/) {}
  void frame_sent(int /*seq*/, double /*t*/) {}
  void frame_lost(double /*t*/) {}
  void frame_corrupted(double /*t*/) {}
  void frame_intact(int /*seq*/, double /*t*/, double /*content*/) {}
  void frame_duplicate(int /*seq*/, double /*t*/) {}
  // A round that stalled (condition 2); `content` is what the client holds.
  void round_end(double /*t*/, double /*content*/, RoundTally) {}
  void retransmit_request(double /*t*/) {}
  void outage_begin(double /*t*/) {}
  void outage_end(double /*t*/, double /*duration*/) {}
  void backoff(double /*t*/, double /*wait*/) {}
  void origin_probe(double /*t*/, bool /*up*/) {}
  void replica_hit(double /*t*/) {}
  void origin_fetch(double /*t*/) {}
  void stale_failover(double /*t*/) {}
  void origin_outage_begin(double /*t*/) {}
  void origin_outage_end(double /*t*/, double /*duration*/) {}
  void handoff(double /*t*/, double /*delay*/) {}
  void reconcile_drop(double /*t*/, int /*dropped*/) {}
  // The walk ended with `received` content. `open` tallies the round the
  // verdict cut short (completion or abort mid-round); empty otherwise.
  void end(WalkEnd /*how*/, double /*t*/, double /*received*/,
           RoundTally /*open*/) {}
};

namespace detail {

// One step_round call: the walk, what it reads, and where its events go.
template <class Walk, class Env, class Observer>
struct Step {
  Walk& w;
  const WalkPlan& plan;
  Env& env;
  Observer& ob;

  void run() {
    EdgeState* edge = env.edge();
    if (edge != nullptr && w.rounds == 0) {
      // The initial request attaches to the assigned proxy before round 1;
      // degrading here ends the walk with zero rounds.
      if (!attach(*edge)) return;
      edge->held_gen = edge->replica_gen;
    }
    ++w.rounds;
    ob.round_start(w.rounds, w.clock);
    RoundTally tally;
    for (int i = 0; i < plan.n; ++i) {
      ++w.frames;
      ++tally.sent;
      w.clock += plan.time_per_frame;
      w.link_clock += plan.time_per_frame;
      ob.frame_sent(i, w.clock);
      if (env.link_down(w.link_clock)) {
        // In a fade: airtime burned, nothing delivered, and the corruption
        // model never sees the frame.
        ++w.frames_lost;
        ++tally.lost;
        ob.frame_lost(w.clock);
        continue;
      }
      if (env.corrupted()) {
        ++tally.corrupted;
        ob.frame_corrupted(w.clock);
      } else if (!w.seen[static_cast<std::size_t>(i)]) {
        w.seen[static_cast<std::size_t>(i)] = true;
        ++w.intact;
        ++tally.intact;
        if (edge != nullptr && edge->serving_stale) ++edge->stats.stale_frames;
        if (i < plan.m) w.content += plan.clear_content[i];
        ob.frame_intact(i, w.clock,
                        w.intact >= plan.m ? plan.total_content : w.content);
      } else {
        ++tally.duplicate;
        ob.frame_duplicate(i, w.clock);
      }
      // Reconstruction (condition 1) outranks the relevance abort
      // (condition 3) when one frame triggers both, as in TransferSession.
      if (w.intact >= plan.m) {
        finish(WalkEnd::kCompleted, tally);
        return;
      }
      if (plan.relevance_threshold >= 0.0 &&
          w.content >= plan.relevance_threshold) {
        finish(WalkEnd::kAbortedIrrelevant, tally);
        return;
      }
    }
    ob.round_end(w.clock, w.content, tally);
    // Give up BEFORE touching the back channel, as ResilientSession does:
    // no trailing request, no trailing cache flush. `>=` so a counter that
    // ever steps past the cap still terminates.
    if (w.rounds >= plan.max_rounds) {
      finish(WalkEnd::kGaveUp);
      return;
    }
    if (plan.retry == nullptr) {
      request_plain();
    } else if (!ride_out_link_fade(edge) ||
               (edge != nullptr && !maybe_handoff(*edge)) ||
               !request_resilient()) {
      return;
    }
    if (!plan.caching) reset_cache();
  }

  void finish(WalkEnd how, RoundTally open = {}) {
    w.end = how;
    if (EdgeState* edge = env.edge()) {
      edge->stats.ended_stale = edge->serving_stale;
    }
    ob.end(how, w.clock,
           how == WalkEnd::kCompleted ? plan.total_content : w.content, open);
  }

  void reset_cache() {
    clear_receipts(w.seen);
    w.intact = 0;
    w.content = 0.0;
  }

  // Request, backoff or edge-tier time on both clocks.
  void charge(double delay) {
    w.clock += delay;
    w.link_clock += delay;
    w.stall_delay += delay;
  }

  // The plain back channel: each lost request costs one request_delay (the
  // client's timeout) before the retry, capped at kMaxFeedbackTries.
  void request_plain() {
    int tries = 1;
    while (tries < kMaxFeedbackTries && env.feedback_lost()) ++tries;
    ob.retransmit_request(w.clock);
    charge(static_cast<double>(tries) * plan.request_delay);
  }

  // Spends one unit of retry budget. With none left (or past the deadline)
  // the walk ends degraded and this returns false.
  bool spend_attempt() {
    const RetryConfig& rp = *plan.retry;
    if (w.attempts >= rp.retry_budget ||
        (rp.deadline_s >= 0.0 && w.link_clock >= rp.deadline_s)) {
      finish(WalkEnd::kDegraded);
      return false;
    }
    ++w.attempts;
    return true;
  }

  // One client wait: the current backoff stretched by the jitter draw. The
  // draw is unconditional (even at jitter = 0) so the jitter stream stays
  // aligned with ResilientSession's, wait for wait.
  void wait_one_backoff() {
    const RetryConfig& rp = *plan.retry;
    const double wait =
        w.backoff * (1.0 + rp.jitter * w.jitter_rng.next_double());
    w.clock += wait;
    w.link_clock += wait;
    w.stall_delay += wait;
    w.backoff_s += wait;
    ob.backoff(w.clock, wait);
    w.backoff = std::min(w.backoff * rp.backoff_multiplier, rp.max_backoff_s);
  }

  // Suspend-on-outage: when the round ended inside a fade, requesting is
  // futile, so back off (consuming budget, so a link that never returns still
  // terminates) until the link is observed up, then resume from whatever the
  // cache kept. A proxied client revalidates its replica on reconnect and
  // reconciles the partial cache against it. False = the walk ended.
  bool ride_out_link_fade(EdgeState* edge) {
    if (!env.link_down(w.link_clock)) return true;
    const double outage_started = w.clock;
    ob.outage_begin(w.clock);
    do {
      if (!spend_attempt()) return false;
      wait_one_backoff();
    } while (env.link_down(w.link_clock));
    ++w.suspensions;
    w.backoff = plan.retry->initial_timeout_s;  // link is back: start fresh
    ob.outage_end(w.clock, w.clock - outage_started);
    if (edge == nullptr) return true;
    if (!validate_serving(*edge)) return false;
    reconcile(*edge);
    return true;
  }

  // Re-request until one message survives the back channel. Every attempt,
  // including the one that succeeds, consumes retry budget.
  bool request_resilient() {
    for (;;) {
      if (!spend_attempt()) return false;
      if (!env.feedback_lost()) break;
      wait_one_backoff();  // timeout: the request is presumed lost
    }
    ob.retransmit_request(w.clock);
    w.backoff = plan.retry->initial_timeout_s;
    charge(plan.request_delay);
    return true;
  }

  void fetch_from_origin(EdgeState& edge) {
    ++edge.stats.origin_fetches;
    ob.origin_fetch(w.clock);
    charge(plan.proxy->origin_fetch_delay_s);
    edge.has_replica = true;
    edge.replica_gen =
        generation_at(w.link_clock, plan.proxy->update_interval_s);
  }

  // Make the serving replica current, or stale-but-flagged when the origin
  // cannot vouch for it. False = the walk degraded riding out an origin fade
  // with nothing cached to serve (cold proxy + origin down).
  bool validate_serving(EdgeState& edge) {
    // Exactly one probe here: origin_up may consume draws.
    const bool up = env.origin_up(w.link_clock);
    ob.origin_probe(w.clock, up);
    if (up) {
      if (edge.has_replica &&
          edge.replica_gen ==
              generation_at(w.link_clock, plan.proxy->update_interval_s)) {
        ++edge.stats.replica_hits;
        ob.replica_hit(w.clock);
      } else {
        // A live replica landing here fell behind the origin's generation:
        // the refresh is a generation bump, not a cold fill.
        if (edge.has_replica) ++edge.stats.origin_generation_bumps;
        fetch_from_origin(edge);
      }
      edge.serving_stale = false;
      return true;
    }
    ++edge.stats.failovers;
    if (edge.has_replica) {
      // Serve the held replica, flagged stale: it may be behind, and there
      // is no way to know until the origin answers.
      ++edge.stats.stale_serves;
      edge.serving_stale = true;
      ob.stale_failover(w.clock);
      return true;
    }
    // Nothing to serve: ride out the origin fade under the link-outage
    // backoff discipline (budget-consuming, so a dead origin terminates).
    const double outage_started = w.clock;
    ob.origin_outage_begin(w.clock);
    while (!env.origin_up(w.link_clock)) {
      if (!spend_attempt()) return false;
      wait_one_backoff();
    }
    ++edge.stats.origin_suspensions;
    ob.origin_outage_end(w.clock, w.clock - outage_started);
    w.backoff = plan.retry->initial_timeout_s;  // origin is back: start fresh
    edge.serving_stale = false;
    fetch_from_origin(edge);
    return true;
  }

  // Attach to a (new) proxy: fresh warm/age draws, then validate. Exactly two
  // proxy-stream draws per attach whatever the outcome.
  bool attach(EdgeState& edge) {
    const ProxyModelConfig& pm = *plan.proxy;
    const bool warm = edge.proxy_rng.next_bernoulli(pm.warm_hit);
    const double age =
        -pm.replica_age_mean_s * std::log(1.0 - edge.proxy_rng.next_double());
    edge.has_replica = warm;
    edge.serving_stale = false;
    edge.replica_gen = warm ? generation_at(std::max(0.0, w.link_clock - age),
                                            pm.update_interval_s)
                            : 0;
    return validate_serving(edge);
  }

  // Reconnect reconciliation: held packets whose generation matches the
  // serving replica's are kept; a mismatch drops them for re-fetch.
  void reconcile(EdgeState& edge) {
    ++edge.stats.reconciliations;
    if (edge.held_gen == edge.replica_gen) return;
    if (w.intact > 0) {
      edge.stats.packets_refetched += w.intact;
      edge.stats.reconcile_dropped_packets += w.intact;
      ob.reconcile_drop(w.clock, w.intact);
      reset_cache();
    }
    edge.held_gen = edge.replica_gen;
  }

  // Cell handoff: one proxy-stream Bernoulli per stalled round, drawn
  // unconditionally (even at handoff_rate = 0) to keep the stream aligned.
  bool maybe_handoff(EdgeState& edge) {
    if (!edge.proxy_rng.next_bernoulli(plan.proxy->handoff_rate)) return true;
    ++edge.stats.handoffs;
    charge(plan.proxy->handoff_delay_s);
    ob.handoff(w.clock, plan.proxy->handoff_delay_s);
    if (!attach(edge)) return false;
    reconcile(edge);
    return true;
  }
};

}  // namespace detail

// One session's walk state; `Receipts` is its receipt set over the cooked
// packets (see clear_receipts).
template <class Receipts>
struct SessionWalk {
  // Two clocks with the same increments: `clock` is the observer clock (the
  // fleet's absolute time, for its event heap and telemetry); `link_clock`
  // is session-relative and drives link/origin queries, generation stamps
  // and the deadline. Deriving one from the other would pick up start-offset
  // rounding and break oracle parity. The oracles start both at 0.
  double clock = 0.0;
  double link_clock = 0.0;
  double content = 0.0;      // content of the clear packets held
  double stall_delay = 0.0;  // request, backoff and edge-tier time charged
  double backoff = 0.0;      // next backoff wait
  double backoff_s = 0.0;    // total time spent backing off
  long frames = 0;
  long frames_lost = 0;
  int intact = 0;
  int rounds = 0;
  int attempts = 0;          // retry budget consumed
  int suspensions = 0;
  Receipts seen;
  Rng jitter_rng{0};
  WalkEnd end = WalkEnd::kRunning;

  // Starts the walk at observer time `start` (link time 0).
  void begin(double start, const WalkPlan& plan, std::uint64_t jitter_seed) {
    MOBIWEB_CHECK_MSG(plan.proxy == nullptr || plan.retry != nullptr,
                      "SessionWalk: the proxied walk needs a retry policy");
    clock = start;
    if (plan.retry != nullptr) {
      backoff = plan.retry->initial_timeout_s;
      jitter_rng.reseed(jitter_seed);
    }
  }

  [[nodiscard]] bool done() const { return end != WalkEnd::kRunning; }

  // Runs one transmission round (the proxied walk's first step attaches to
  // the proxy first), through to the next retransmission request or the end.
  template <class Env, class Observer>
  void step_round(const WalkPlan& plan, Env& env, Observer& observer) {
    detail::Step<SessionWalk, Env, Observer>{*this, plan, env, observer}.run();
  }

  [[nodiscard]] TransferResult result(const WalkPlan& plan) const {
    TransferResult r;
    r.time = static_cast<double>(frames) * plan.time_per_frame + stall_delay;
    r.packets = frames;
    r.rounds = rounds;
    r.completed = end == WalkEnd::kCompleted;
    r.aborted_irrelevant = end == WalkEnd::kAbortedIrrelevant;
    r.gave_up = end == WalkEnd::kGaveUp;
    r.degraded = end == WalkEnd::kDegraded;
    r.content = r.completed ? plan.total_content : content;
    r.frames_lost = frames_lost;
    r.suspensions = suspensions;
    r.request_attempts = attempts;
    r.backoff_s = backoff_s;
    return r;
  }
};

// Runs one walk to termination on the oracles' std::function hooks: the
// body of simulate_transfer (retry = proxied = nullptr),
// simulate_resilient_transfer (proxied = nullptr) and
// simulate_proxied_transfer. Validates every config it is given.
ProxiedTransferResult walk_to_end(const std::vector<double>& clear_content,
                                  const TransferConfig& base,
                                  const RetryConfig* retry,
                                  std::uint64_t jitter_seed,
                                  const ProxiedTransferConfig* proxied,
                                  const std::function<bool()>& next_corrupted);

}  // namespace mobiweb::sim
