// fleet_weak and proxy_edge: batch runs of 1M sessions on 4 shards through
// fleet::FleetEngine.
//
// Corpus documents are the paper's synthetic 10 KB documents (M = 40 or 41).
//
// fleet_weak: corpus 64, gamma 1.5, alpha 0.1, Markov link fades (duty 0.2,
// mean fade 8 s), Zipf(0.8) popularity, Poisson arrivals over about 120 s,
// default telemetry and the timeline document built after run(). The
// resilient walk, the event heap, per-session state and telemetry do almost
// all the work; the codec encodes the 64 documents once.
//
// proxy_edge: corpus 32, alpha 0.45, uniform stagger over 120 s, 8 edge
// proxies (warm-hit 0.6, replica age 40 s, updates every 15 s, handoff rate
// 0.3) in front of an origin fading at duty 0.25 (mean fade 20 s); no link
// fades and no telemetry. This drives the proxied walk on the plain path.
//
// One repetition is: construct the engine and prefill its cache (set-up),
// then run() plus, with telemetry, timeline_document() (the timed phase).
// Repetitions continue until the measuring time is used up; every one must
// reproduce the first one's aggregates exactly.
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "channel/outage.hpp"
#include "fleet/engine.hpp"
#include "fleet/telemetry.hpp"
#include "sim/proxied.hpp"
#include "sim/transfer.hpp"
#include "transmit/transmitter.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fleet = mobiweb::fleet;
namespace sim = mobiweb::sim;
using mobiweb::channel::MarkovOutageModel;

constexpr std::size_t kSessions = 1'000'000;
constexpr std::size_t kShards = 4;
constexpr double kArrivalWindowS = 120.0;
constexpr int kMinReps = 3;
constexpr int kExtraSetupsPerRep = 16;
constexpr std::size_t kParityStride = kSessions / 2000;
constexpr std::size_t kParityFailures = 500;
constexpr int kReceiveSetsPerDoc = 16;

// Raw packets per corpus document: 40 (the paper's 10 KB at 256-byte
// packets) or 41, drawn from the seed, so the simulated-time quantiles differ
// between seeds instead of always landing on the same frame count.
std::size_t seeded_doc_size(std::uint64_t seed, std::size_t packet_size) {
  mobiweb::Rng rng(derive_seed(seed, 3));
  return packet_size * (40 + rng.next_below(2));
}

fleet::FleetConfig fleet_weak_config(std::uint64_t seed) {
  fleet::FleetConfig cfg;
  cfg.corpus.doc.doc_size = seeded_doc_size(seed, cfg.corpus.doc.packet_size);
  cfg.corpus.corpus_size = 64;
  cfg.corpus.seed = derive_seed(seed, 1);
  cfg.sessions = kSessions;
  cfg.shards = kShards;
  cfg.seed = derive_seed(seed, 2);
  cfg.gammas = {1.5};
  cfg.alpha = 0.1;
  cfg.outage = std::make_shared<MarkovOutageModel>(MarkovOutageModel::with_duty_cycle(0.2, 8.0));
  cfg.zipf_s = 0.8;
  cfg.arrival_rate_hz = static_cast<double>(kSessions) / kArrivalWindowS;
  cfg.telemetry = fleet::FleetTelemetryConfig{};
  return cfg;
}

fleet::FleetConfig proxy_edge_config(std::uint64_t seed) {
  fleet::FleetConfig cfg;
  cfg.corpus.doc.doc_size = seeded_doc_size(seed, cfg.corpus.doc.packet_size);
  cfg.corpus.corpus_size = 32;
  cfg.corpus.seed = derive_seed(seed, 1);
  cfg.sessions = kSessions;
  cfg.shards = kShards;
  cfg.seed = derive_seed(seed, 2);
  cfg.gammas = {1.5};
  cfg.alpha = 0.45;
  cfg.arrival_spread_s = kArrivalWindowS;
  fleet::FleetProxyConfig proxy;
  proxy.model.warm_hit = 0.6;
  proxy.model.replica_age_mean_s = 40.0;
  proxy.model.origin_fetch_delay_s = 0.5;
  proxy.model.handoff_rate = 0.3;
  proxy.model.handoff_delay_s = 0.3;
  proxy.model.update_interval_s = 15.0;
  proxy.model.proxies = 8;
  proxy.origin_outage =
      std::make_shared<MarkovOutageModel>(MarkovOutageModel::with_duty_cycle(0.25, 20.0));
  cfg.proxy = std::move(proxy);
  return cfg;
}

std::vector<fleet::CacheKey> corpus_keys(const fleet::FleetConfig& cfg) {
  std::vector<fleet::CacheKey> keys;
  for (std::size_t d = 0; d < cfg.corpus.corpus_size; ++d) {
    keys.push_back({static_cast<std::uint32_t>(d), cfg.gammas[0]});
  }
  return keys;
}

// Aggregates every repetition of one configuration must reproduce exactly.
struct Facts {
  long completed, gave_up, aborted, degraded, frames_sent, frames_lost, rounds, suspensions;
  long failovers, stale_serves, handoffs, reconciliations, packets_refetched;
  double makespan, min, p50, p95, p99, p999, max;
  std::size_t retained_traces;

  bool operator==(const Facts&) const = default;
};

Facts facts_of(const fleet::FleetResult& r) {
  const auto& t = r.session_time_tails;
  return {r.completed, r.gave_up, r.aborted_irrelevant, r.degraded, r.frames_sent,
          r.frames_lost, r.rounds, r.suspensions, r.proxy.failovers, r.proxy.stale_serves,
          r.proxy.handoffs, r.proxy.reconciliations, r.proxy.packets_refetched,
          r.makespan_s, t.min, t.p50, t.p95, t.p99, t.p999, t.max, r.traces.size()};
}

// Output checks of one run; returns what is wrong, empty when all hold.
std::vector<std::string> check_run(const fleet::FleetResult& r, std::size_t corpus) {
  std::vector<std::string> problems;
  const auto sessions = static_cast<long>(r.sessions);
  if (r.completed + r.degraded + r.gave_up + r.aborted_irrelevant != sessions) {
    problems.push_back("completed + degraded + gave-up + aborted != sessions");
  }
  // Servings: the benchmark's prefill asks for each corpus key once (all
  // builds), every session is served once, and run() may warm each key once
  // more before admitting sessions.
  const long servings = r.cache_hits + r.cache_misses;
  const long floor = sessions + static_cast<long>(corpus);
  if (r.cache_misses != static_cast<long>(corpus) || servings < floor ||
      servings > floor + static_cast<long>(corpus)) {
    problems.push_back("cache hits + misses do not match the servings");
  }
  const auto& t = r.session_time_tails;
  const bool finite = std::isfinite(t.min) && std::isfinite(t.max);
  if (t.count != r.sessions || !finite || t.min < 0.0 || t.min > t.p50 || t.p50 > t.p95 ||
      t.p95 > t.p99 || t.p99 > t.p999 || t.p999 > t.max) {
    problems.push_back("session-time tails are not monotone");
  }
  return problems;
}

struct Rep {
  double ctor_s = 0.0;
  double prefill_s = 0.0;
  double timed_s = 0.0;  // run() + timeline_document()
  std::size_t document_bytes = 0;
  Facts facts{};
  long cache_hits = 0;
  long cache_misses = 0;
};

Rep run_rep(const fleet::FleetConfig& cfg, std::uint64_t id, Tracer* tracer,
            Report& report) {
  Rep rep;
  std::unique_ptr<fleet::FleetEngine> engine;
  fleet::FleetResult result;
  {
    const Scope rep_span(tracer, "fleet.rep", id);
    const auto t0 = Clock::now();
    {
      const Scope s(tracer, "fleet.engine_ctor", id);
      engine = std::make_unique<fleet::FleetEngine>(cfg);
    }
    const auto t1 = Clock::now();
    {
      const Scope s(tracer, "fleet.cache.prefill", id);
      engine->cache().prefill(corpus_keys(cfg));
    }
    const auto t2 = Clock::now();
    {
      const Scope s(tracer, "fleet.run", id);
      result = engine->run();
    }
    if (cfg.telemetry.has_value()) {
      const Scope s(tracer, "telemetry.export", id);
      rep.document_bytes = fleet::timeline_document(result, cfg).size();
    }
    const auto t3 = Clock::now();
    rep.ctor_s = seconds_between(t0, t1);
    rep.prefill_s = seconds_between(t1, t2);
    rep.timed_s = seconds_between(t2, t3);
  }
  rep.facts = facts_of(result);
  rep.cache_hits = result.cache_hits;
  rep.cache_misses = result.cache_misses;
  const std::vector<std::string> problems = check_run(result, cfg.corpus.corpus_size);
  for (const std::string& p : problems) report.fail(p);
  report.attempt(static_cast<long>(result.sessions),
                 problems.empty() ? 0 : static_cast<long>(result.sessions));
  return rep;
}

// Seconds of set-up alone: engine construction plus cache prefill.
double time_setup(const fleet::FleetConfig& cfg) {
  const auto t0 = Clock::now();
  fleet::FleetEngine engine(cfg);
  engine.cache().prefill(corpus_keys(cfg));
  return seconds_between(t0, Clock::now());
}

// One untimed warm-up run (it fills the process-wide generator cache and the
// allocator), then timed runs until `seconds` are used, at least kMinReps of
// them. With a tracer, timed runs alternate untraced (even) and traced (odd).
// Every run must reproduce the warm-up's aggregates exactly.
std::vector<Rep> run_reps(const fleet::FleetConfig& cfg, double seconds, Tracer* tracer,
                          Report& report, std::vector<double>& setup_s) {
  const Rep warm = run_rep(cfg, 0, nullptr, report);
  std::vector<Rep> reps;
  const auto start = Clock::now();
  while (static_cast<int>(reps.size()) < kMinReps + (tracer != nullptr ? 1 : 0) ||
         seconds_between(start, Clock::now()) < seconds) {
    Tracer* t = (tracer != nullptr && reps.size() % 2 == 1) ? tracer : nullptr;
    reps.push_back(run_rep(cfg, reps.size() + 1, t, report));
    // Set-up is milliseconds against a run of seconds, and its cache prefill
    // wakes the thread pool, whose wake-up cost swings with the host: sample
    // it many more times after every run, so its samples spread over the
    // measuring time and their median is not one wake-up's luck.
    setup_s.push_back(reps.back().ctor_s + reps.back().prefill_s);
    for (int k = 0; k < kExtraSetupsPerRep; ++k) setup_s.push_back(time_setup(cfg));
    if (!(reps.back().facts == warm.facts)) {
      report.fail("run " + std::to_string(reps.size()) +
                  " did not reproduce the warm-up run's aggregates");
    }
  }
  return reps;
}

void report_untraced(const fleet::FleetConfig& cfg, const Options& options, Report& report) {
  std::vector<double> setup_s;
  const std::vector<Rep> reps = run_reps(cfg, options.seconds, nullptr, report, setup_s);
  const double rss = peak_rss_bytes();

  std::vector<double> rate;
  std::vector<double> us_per_session;
  for (const Rep& r : reps) {
    rate.push_back(static_cast<double>(kSessions) / r.timed_s);
    us_per_session.push_back(r.timed_s / static_cast<double>(kSessions) * 1e6);
  }
  const Facts& f = reps.front().facts;
  report.metric("sessions_per_s", median(rate), "1/s");
  // A batch run has no per-session host clock: host time per session is the
  // timed phase amortized over its sessions, taken per repetition.
  report.metric("session_host_us_p50", quantile(us_per_session, 0.5), "us");
  report.metric("session_host_us_p99", quantile(us_per_session, 0.99), "us");
  report.metric("peak_rss_mb", rss / 1e6, "MB");
  report.metric("setup_s", median(setup_s), "s");
  report.metric("sim_session_time_s_p50", f.p50, "s");
  report.metric("sim_session_time_s_p99", f.p99, "s");
  report.metric("sim_completed_fraction",
                1.0 - static_cast<double>(f.degraded + f.gave_up) / static_cast<double>(kSessions),
                "fraction");
}

// The round-body configuration a fleet session ran under.
sim::TransferConfig base_transfer_config(const fleet::FleetConfig& cfg,
                                         const fleet::CookedDocument& cooked) {
  sim::TransferConfig tc;
  tc.m = static_cast<int>(cooked.transmitter.m());
  tc.n = static_cast<int>(cooked.transmitter.n());
  tc.alpha = cfg.alpha;
  tc.caching = cfg.caching;
  tc.relevance_threshold = cfg.relevance_threshold;
  tc.time_per_packet = static_cast<double>(cooked.frame_size) * 8.0 / cfg.bandwidth_bps;
  tc.request_delay = cfg.request_delay;
  tc.max_rounds = cfg.max_rounds;
  return tc;
}

std::function<bool(double)> session_model(const mobiweb::channel::OutageModel& prototype,
                                          std::uint64_t seed) {
  const std::shared_ptr<mobiweb::channel::OutageModel> model = prototype.session_clone();
  const auto rng = std::make_shared<mobiweb::Rng>(seed);
  return [model, rng](double t) { return model->link_up(t, *rng); };
}

bool same_transfer(const sim::TransferResult& a, const sim::TransferResult& b) {
  return a.packets == b.packets && a.rounds == b.rounds && a.completed == b.completed &&
         a.aborted_irrelevant == b.aborted_irrelevant && a.gave_up == b.gave_up &&
         a.degraded == b.degraded && a.content == b.content && a.time == b.time &&
         a.frames_lost == b.frames_lost && a.suspensions == b.suspensions &&
         a.request_attempts == b.request_attempts && a.backoff_s == b.backoff_s;
}

bool same_proxy(const sim::ProxyStats& a, const sim::ProxyStats& b) {
  return a.replica_hits == b.replica_hits && a.stale_serves == b.stale_serves &&
         a.failovers == b.failovers && a.handoffs == b.handoffs &&
         a.origin_fetches == b.origin_fetches &&
         a.origin_suspensions == b.origin_suspensions &&
         a.reconciliations == b.reconciliations &&
         a.packets_refetched == b.packets_refetched && a.stale_frames == b.stale_frames &&
         a.ended_stale == b.ended_stale &&
         a.origin_generation_bumps == b.origin_generation_bumps &&
         a.reconcile_dropped_packets == b.reconcile_dropped_packets;
}

// Rebuilds the exact oracle configuration of session `out` from the public
// per-session seeds, replays it under a span, and compares every field.
bool matches_oracle(const fleet::FleetConfig& cfg, fleet::FleetEngine& engine,
                    const fleet::SessionOutcome& out, Tracer& tracer) {
  const auto cooked = engine.cache().get(out.key);
  const std::uint64_t i = out.session;
  mobiweb::Rng rng(fleet::session_seed(cfg.seed, i));
  if (!cfg.proxy.has_value()) {
    sim::ResilientTransferConfig rc;
    rc.base = base_transfer_config(cfg, *cooked);
    rc.retry = cfg.retry;
    rc.jitter_seed = fleet::session_jitter_seed(cfg.seed, i);
    rc.base.link_up = session_model(*cfg.outage, fleet::session_outage_seed(cfg.seed, i));
    sim::TransferResult expected;
    {
      const Scope s(&tracer, "sim.walk", i);
      expected = sim::simulate_resilient_transfer(cooked->clear_content, rc, rng);
    }
    return same_transfer(out.result, expected);
  }
  sim::ProxiedTransferConfig pc;
  pc.base = base_transfer_config(cfg, *cooked);
  pc.retry = cfg.retry;
  pc.proxy = cfg.proxy->model;
  pc.jitter_seed = fleet::session_jitter_seed(cfg.seed, i);
  pc.proxy_seed = fleet::session_proxy_seed(cfg.seed, i);
  if (cfg.outage != nullptr) {
    pc.base.link_up = session_model(*cfg.outage, fleet::session_outage_seed(cfg.seed, i));
  }
  if (cfg.proxy->origin_outage != nullptr) {
    pc.origin_up =
        session_model(*cfg.proxy->origin_outage, fleet::session_origin_seed(cfg.seed, i));
  }
  sim::ProxiedTransferResult expected;
  {
    const Scope s(&tracer, "sim.walk", i);
    expected = sim::simulate_proxied_transfer(cooked->clear_content, pc, rng);
  }
  return same_transfer(out.result, expected.transfer) && same_proxy(out.proxy, expected.proxy) &&
         out.proxy_id == fleet::session_proxy_assignment(cfg.seed, i, cfg.proxy->model.proxies);
}

// Runs the workload once more with per-session outcomes kept and replays a
// sample (every kParityStride-th session plus the first kParityFailures
// degraded or gave-up ones) through the analytic oracle.
void check_oracle_parity(const fleet::FleetConfig& base, Report& report, Tracer& tracer) {
  fleet::FleetConfig cfg = base;
  cfg.record_outcomes = true;
  fleet::FleetEngine engine(cfg);
  engine.cache().prefill(corpus_keys(cfg));
  const fleet::FleetResult r = engine.run();
  std::vector<std::size_t> sample;
  std::size_t failures = 0;
  for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
    const sim::TransferResult& t = r.outcomes[i].result;
    const bool failed = (t.degraded || t.gave_up) && failures < kParityFailures;
    failures += failed ? 1 : 0;
    if (failed || i % kParityStride == 0) sample.push_back(i);
  }
  long mismatched = 0;
  for (const std::size_t i : sample) {
    mismatched += matches_oracle(cfg, engine, r.outcomes[i], tracer) ? 0 : 1;
  }
  if (mismatched > 0) {
    report.fail(std::to_string(mismatched) + " sampled sessions differ from the oracle");
  }
  report.attempt(static_cast<long>(sample.size()), mismatched);
  report.metric("sim.parity_sessions", static_cast<double>(sample.size()), "count");
}

// Codec inputs from the workload's own corpus: the cached documents'
// payloads, and receive sets drawn with the workload's corruption rate (a
// caching client collecting its first m intact frames).
CodecInputs fleet_codec_inputs(const fleet::FleetConfig& cfg, fleet::FleetEngine& engine,
                               std::uint64_t seed) {
  CodecInputs in;
  in.packet_size = cfg.corpus.doc.packet_size;
  in.gamma = cfg.gammas[0];
  mobiweb::Rng rng(derive_seed(seed, 7));
  for (const fleet::CacheKey& key : corpus_keys(cfg)) {
    const auto cooked = engine.cache().get(key);
    in.payloads.push_back(cooked->transmitter.document().payload);
    const std::size_t m = cooked->transmitter.m();
    const std::size_t n = cooked->transmitter.n();
    for (int s = 0; s < kReceiveSetsPerDoc; ++s) {
      std::vector<bool> held(n, false);
      std::size_t count = 0;
      while (count < m) {
        for (std::size_t i = 0; i < n && count < m; ++i) {
          if (!held[i] && !rng.next_bernoulli(cfg.alpha)) {
            held[i] = true;
            ++count;
          }
        }
      }
      std::vector<std::size_t> indices;
      for (std::size_t i = 0; i < n; ++i) {
        if (held[i]) indices.push_back(i);
      }
      in.receive_sets.emplace_back(in.payloads.size() - 1, std::move(indices));
    }
  }
  return in;
}

void report_traced(const fleet::FleetConfig& cfg, const Options& options, Report& report,
                   Tracer& tracer) {
  std::vector<double> setup_s;
  const std::vector<Rep> reps = run_reps(cfg, options.seconds, &tracer, report, setup_s);
  const double rss = peak_rss_bytes();
  std::vector<double> untraced_rate;
  std::vector<double> traced_rate;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    (i % 2 == 0 ? untraced_rate : traced_rate)
        .push_back(static_cast<double>(kSessions) / reps[i].timed_s);
  }
  const Rep& r = reps.front();
  const Facts& f = r.facts;
  const auto med_s = [&](const char* span) { return median(tracer.durations_us(span)) / 1e6; };
  const double run_s = med_s("fleet.run");
  report.metric("fleet.run_s", run_s, "s");
  report.metric("fleet.rounds", static_cast<double>(f.rounds), "count");
  report.metric("fleet.host_ns_per_round", run_s / static_cast<double>(f.rounds) * 1e9, "ns");
  report.metric("fleet.peak_rss_bytes_per_session", rss / static_cast<double>(kSessions),
                "bytes");
  report.metric("fleet.engine_ctor_s", med_s("fleet.engine_ctor"), "s");
  report.metric("fleet.cache.prefill_s", med_s("fleet.cache.prefill"), "s");
  report.metric("fleet.cache.builds", static_cast<double>(r.cache_misses), "count");
  report.metric("fleet.cache.hit_ratio",
                static_cast<double>(r.cache_hits) /
                    static_cast<double>(r.cache_hits + r.cache_misses),
                "fraction");
  report.metric("sim.suspensions_per_session",
                static_cast<double>(f.suspensions) / static_cast<double>(kSessions), "count");
  report.metric("sim.frames_lost_fraction",
                static_cast<double>(f.frames_lost) / static_cast<double>(f.frames_sent),
                "fraction");
  report.metric("telemetry.export_s", med_s("telemetry.export"), "s");
  report.metric("telemetry.document_bytes", static_cast<double>(r.document_bytes), "bytes");
  report.metric("telemetry.retained_traces", static_cast<double>(f.retained_traces),
                "count");
  report.metric("proxy.failovers", static_cast<double>(f.failovers), "count");
  report.metric("proxy.stale_serves", static_cast<double>(f.stale_serves), "count");
  report.metric("proxy.handoffs", static_cast<double>(f.handoffs), "count");
  report.metric("proxy.reconciliations", static_cast<double>(f.reconciliations), "count");
  report.metric("proxy.packets_refetched_per_reconcile",
                f.reconciliations > 0
                    ? static_cast<double>(f.packets_refetched) /
                          static_cast<double>(f.reconciliations)
                    : 0.0,
                "count");
  report.metric("trace.overhead_fraction", 1.0 - median(traced_rate) / median(untraced_rate),
                "fraction");
  report.metric("trace.untraced_fraction", tracer.untraced_fraction("fleet.rep"), "fraction");

  check_oracle_parity(cfg, report, tracer);
  report.metric("sim.walk_us_per_session", median(tracer.durations_us("sim.walk")), "us");

  // The codec as the cache drives it: transmitter construction (IDA encode
  // and framing) per corpus document, then the ladder on the same payloads.
  fleet::FleetEngine engine(cfg);
  engine.cache().prefill(corpus_keys(cfg));
  for (int pass = 0; pass < 3; ++pass) {
    for (const fleet::CacheKey& key : corpus_keys(cfg)) {
      const auto cooked = engine.cache().get(key);
      mobiweb::doc::LinearDocument copy = cooked->transmitter.document();
      mobiweb::transmit::TransmitterConfig tc;
      tc.packet_size = cfg.corpus.doc.packet_size;
      tc.gamma = key.gamma;
      tc.doc_id = static_cast<std::uint16_t>(key.doc_index + 1);
      std::optional<mobiweb::transmit::DocumentTransmitter> tx;
      const Scope s(&tracer, "transmit.encode", key.doc_index);
      tx.emplace(std::move(copy), tc);
    }
  }
  report.metric("transmit.encode_us", median(tracer.durations_us("transmit.encode")), "us");
  run_codec_ladder(fleet_codec_inputs(cfg, engine, options.seed), report, &tracer);
  // The engine walks sessions analytically: no XML is published, linearized
  // or reassembled, and no frame crosses a channel or reaches a decoder.
  report.unused({{"core.publish_us", "us"},
                 {"doc.linearize_us", "us"},
                 {"doc.reassemble_us", "us"},
                 {"ida.reconstruct_us", "us"},
                 {"transmit.session_us", "us"},
                 {"transmit.rounds_per_session", "count"},
                 {"transmit.intact_frame_ratio", "fraction"},
                 {"transmit.frame_fraction", "fraction"}});
}

void run_fleet(const fleet::FleetConfig& cfg, const Options& options, Report& report,
               Tracer* tracer) {
  if (tracer == nullptr) {
    report_untraced(cfg, options, report);
  } else {
    report_traced(cfg, options, report, *tracer);
  }
}

}  // namespace

void run_fleet_weak(const Options& options, Report& report, Tracer* tracer) {
  run_fleet(fleet_weak_config(options.seed), options, report, tracer);
}

void run_proxy_edge(const Options& options, Report& report, Tracer* tracer) {
  run_fleet(proxy_edge_config(options.seed), options, report, tracer);
}

}  // namespace perfbench
