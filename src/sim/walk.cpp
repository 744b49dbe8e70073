#include "sim/walk.hpp"

namespace mobiweb::sim {

void validate(const TransferConfig& config) {
  MOBIWEB_CHECK_MSG(config.m >= 1, "TransferConfig: m >= 1");
  MOBIWEB_CHECK_MSG(config.n >= config.m, "TransferConfig: n >= m");
  MOBIWEB_CHECK_MSG(config.max_rounds >= 1, "TransferConfig: max_rounds >= 1");
}

void validate(const RetryConfig& retry) {
  MOBIWEB_CHECK_MSG(retry.retry_budget >= 1, "RetryConfig: retry_budget >= 1");
  MOBIWEB_CHECK_MSG(retry.initial_timeout_s >= 0.0,
                    "RetryConfig: initial_timeout_s >= 0");
  MOBIWEB_CHECK_MSG(retry.backoff_multiplier >= 1.0,
                    "RetryConfig: backoff_multiplier >= 1");
  MOBIWEB_CHECK_MSG(retry.max_backoff_s >= retry.initial_timeout_s,
                    "RetryConfig: max_backoff_s >= initial_timeout_s");
  MOBIWEB_CHECK_MSG(retry.jitter >= 0.0, "RetryConfig: jitter >= 0");
}

void validate(const ProxyModelConfig& proxy) {
  MOBIWEB_CHECK_MSG(proxy.warm_hit >= 0.0 && proxy.warm_hit <= 1.0,
                    "ProxyModelConfig: warm_hit in [0,1]");
  MOBIWEB_CHECK_MSG(proxy.replica_age_mean_s >= 0.0,
                    "ProxyModelConfig: replica_age_mean_s >= 0");
  MOBIWEB_CHECK_MSG(proxy.origin_fetch_delay_s >= 0.0,
                    "ProxyModelConfig: origin_fetch_delay_s >= 0");
  MOBIWEB_CHECK_MSG(proxy.handoff_rate >= 0.0 && proxy.handoff_rate < 1.0,
                    "ProxyModelConfig: handoff_rate in [0,1)");
  MOBIWEB_CHECK_MSG(proxy.handoff_delay_s >= 0.0,
                    "ProxyModelConfig: handoff_delay_s >= 0");
  MOBIWEB_CHECK_MSG(proxy.update_interval_s >= 0.0,
                    "ProxyModelConfig: update_interval_s >= 0");
  MOBIWEB_CHECK_MSG(proxy.proxies >= 1, "ProxyModelConfig: proxies >= 1");
}

std::function<bool()> bernoulli_draws(const TransferConfig& config, Rng& rng) {
  MOBIWEB_CHECK_MSG(config.alpha >= 0.0 && config.alpha < 1.0,
                    "TransferConfig: alpha in [0,1)");
  return [&rng, alpha = config.alpha] { return rng.next_bernoulli(alpha); };
}

namespace {

// The oracles' environment: every draw comes from a caller-supplied hook.
struct OracleEnv {
  const std::function<bool()>& next_corrupted;
  const TransferConfig& base;
  const std::function<bool(double)>* origin;  // nullptr = origin always up
  EdgeState* edge_state;                      // nullptr = direct walk

  bool corrupted() { return next_corrupted(); }
  bool link_down(double t) { return base.link_up && !base.link_up(t); }
  bool feedback_lost() { return base.feedback_lost && base.feedback_lost(); }
  bool origin_up(double t) {
    return origin == nullptr || !*origin || (*origin)(t);
  }
  EdgeState* edge() { return edge_state; }
};

// Forwards every walk event to an oracle's SessionTrace.
struct TraceObserver : NullObserver {
  obs::SessionTrace& trace;

  void round_start(int round, double t) { trace.round_start(round, t); }
  void frame_sent(int seq, double t) { trace.frame_sent(seq, t); }
  void frame_lost(double t) { trace.frame_lost(t); }
  void frame_corrupted(double t) { trace.frame_corrupted(t); }
  void frame_intact(int seq, double t, double content) {
    trace.frame_intact(seq, t, content);
  }
  void frame_duplicate(int seq, double t) { trace.frame_duplicate(seq, t); }
  void round_end(double t, double /*content*/, RoundTally) {
    trace.round_end(t);
  }
  void retransmit_request(double t) { trace.retransmit_request(t); }
  void outage_begin(double t) { trace.outage_begin(t); }
  void outage_end(double t, double duration) {
    trace.outage_end(t, duration);
    trace.resume(t);
  }
  void backoff(double t, double wait) { trace.backoff(t, wait); }
  void stale_failover(double t) { trace.stale_failover(t); }
  void origin_outage_begin(double t) { trace.origin_outage_begin(t); }
  void origin_outage_end(double t, double duration) {
    trace.origin_outage_end(t, duration);
  }
  void handoff(double t, double delay) { trace.handoff(t, delay); }
  void reconcile_drop(double t, int dropped) {
    trace.reconcile_drop(t, dropped);
  }
  void end(WalkEnd how, double t, double received, RoundTally) {
    switch (how) {
      case WalkEnd::kCompleted: trace.decode_complete(t); break;
      case WalkEnd::kAbortedIrrelevant:
        trace.abort_irrelevant(t, received);
        break;
      case WalkEnd::kGaveUp: trace.give_up(t); break;
      case WalkEnd::kDegraded: trace.degraded(t, received); break;
      case WalkEnd::kRunning: break;
    }
    trace.session_end(t, received);
  }
};

}  // namespace

ProxiedTransferResult walk_to_end(const std::vector<double>& clear_content,
                                  const TransferConfig& base,
                                  const RetryConfig* retry,
                                  std::uint64_t jitter_seed,
                                  const ProxiedTransferConfig* proxied,
                                  const std::function<bool()>& next_corrupted) {
  validate(base);
  MOBIWEB_CHECK_MSG(static_cast<int>(clear_content.size()) == base.m,
                    "walk_to_end: clear_content must have m entries");
  if (retry != nullptr) validate(*retry);
  if (proxied != nullptr) validate(proxied->proxy);

  WalkPlan plan;
  plan.clear_content = clear_content.data();
  for (double c : clear_content) plan.total_content += c;
  plan.m = base.m;
  plan.n = base.n;
  plan.time_per_frame = base.time_per_packet;
  plan.request_delay = base.request_delay;
  plan.relevance_threshold = base.relevance_threshold;
  plan.max_rounds = base.max_rounds;
  plan.caching = base.caching;
  plan.retry = retry;
  plan.proxy = proxied != nullptr ? &proxied->proxy : nullptr;

  EdgeState edge;
  if (proxied != nullptr) edge.proxy_rng.reseed(proxied->proxy_seed);
  OracleEnv env{next_corrupted, base,
                proxied != nullptr ? &proxied->origin_up : nullptr,
                proxied != nullptr ? &edge : nullptr};
  SessionWalk<std::vector<bool>> walk{.seen = std::vector<bool>(base.n)};
  walk.begin(0.0, plan, jitter_seed);
  if (base.trace != nullptr) {
    base.trace->session_start(0.0);
    TraceObserver observer{{}, *base.trace};
    while (!walk.done()) walk.step_round(plan, env, observer);
  } else {
    NullObserver observer;
    while (!walk.done()) walk.step_round(plan, env, observer);
  }
  return {walk.result(plan), edge.stats};
}

}  // namespace mobiweb::sim
