// browse_mixed: one BrowseSession client over 64 published, paper-shaped XML
// documents (5 sections x 2 subsections x 2 paragraphs), fetched in a closed
// loop. Payloads are spread log-uniformly from 2 KB to 40 KB (M from 8 to
// 160 at 256-byte packets), so IDA runs both its serial and its thread-pool
// row paths. Documents are drawn by Zipf(0.8) popularity; even fetches are
// relevant and download in full, odd ones are irrelevant and stop at F = 0.5
// (the paper's I = 0.5 / F = 0.5 mixed session), so encode-heavy and
// decode-heavy fetches sit side by side.
//
// The fetch schedule is a fixed list of kFetches fetches made from the seed.
// The timed phase replays it with a fresh client until the time is up; the
// simulated-clock metrics come from the first replay, so they repeat exactly
// for a seed whatever the host speed.
//
// The traced run alternates replays through BrowseSession::fetch with
// replays through the same public calls fetch() makes (linearize, transmitter,
// receiver, session, reconstruct, reassemble), each under its own span, and
// checks that both give the same transfer on every fetch.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "channel/channel.hpp"
#include "channel/error_model.hpp"
#include "core/mobiweb.hpp"
#include "doc/linear.hpp"
#include "transmit/receiver.hpp"
#include "transmit/session.hpp"
#include "transmit/transmitter.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace doc = mobiweb::doc;
namespace transmit = mobiweb::transmit;
using mobiweb::Rng;

constexpr int kDocs = 64;
constexpr int kFetches = 4096;
constexpr double kZipf = 0.8;
constexpr double kAlpha = 0.1;
constexpr double kGamma = 1.5;
constexpr std::size_t kPacketSize = 256;
constexpr double kIrrelevantF = 0.5;
constexpr double kMinPayload = 2048.0;
constexpr double kPayloadSpread = 20.0;  // largest / smallest payload
constexpr int kMinReplays = 5;
constexpr int kSetupsPerReplay = 4;
constexpr std::size_t kMaxReceiveSets = 2048;
constexpr int kMaxTracedReplays = 3;

const char* const kFiller[] = {"the", "of", "and", "to", "in", "a", "is",
                               "that", "for", "with", "as", "on", "by", "it"};
const char* const kSyllables[] = {"ra", "to", "mi", "ne", "ka", "lo", "su", "vi",
                                  "de", "po", "an", "er", "ic", "ul", "or", "es"};

std::string make_word(Rng& rng) {
  std::string w;
  const int syllables = 2 + static_cast<int>(rng.next_below(3));
  for (int i = 0; i < syllables; ++i) w += kSyllables[rng.next_below(16)];
  return w;
}

// Paragraph text of about `bytes` bytes: topical words at the paragraph's
// own density, stop words elsewhere, so information content varies across
// paragraphs and IC ranking reorders them.
std::string make_paragraph(Rng& rng, const std::vector<std::string>& topic,
                           std::size_t bytes) {
  const double density = rng.next_range(0.15, 0.85);
  std::string text;
  while (text.size() < bytes) {
    if (!text.empty()) text += ' ';
    if (rng.next_bernoulli(density)) {
      // Skewed pick inside the topic: low indices are the document's themes.
      const double u = rng.next_double();
      text += topic[static_cast<std::size_t>(u * u * static_cast<double>(topic.size()))];
    } else {
      text += kFiller[rng.next_below(sizeof kFiller / sizeof kFiller[0])];
    }
  }
  text.resize(bytes);  // exact size: M per document does not depend on the seed
  return text;
}

// Document `rank` (popularity rank) of the corpus. Sizes are assigned to
// ranks by a fixed stride permutation and titles are fixed, so every seed
// gives each rank the same payload size; the seed draws the words.
std::string make_document(std::uint64_t seed, int rank) {
  Rng rng(derive_seed(seed, 100 + static_cast<std::uint64_t>(rank)));
  const int position = (rank * 37) % kDocs;
  const double target =
      kMinPayload * std::pow(kPayloadSpread, position / static_cast<double>(kDocs - 1));
  const std::size_t para_bytes = static_cast<std::size_t>(target / 20.0 * 0.9);
  std::vector<std::string> topic;
  for (int i = 0; i < 48; ++i) topic.push_back(make_word(rng));

  std::string xml = "<?xml version=\"1.0\"?>\n<research-paper>\n<title>Document " +
                    std::to_string(rank) + "</title>\n";
  for (int s = 0; s < 5; ++s) {
    xml += "<section><title>Section " + std::to_string(s + 1) + "</title>\n";
    for (int ss = 0; ss < 2; ++ss) {
      xml += "<subsection><title>Subsection " + std::to_string(ss + 1) + "</title>\n";
      for (int p = 0; p < 2; ++p) {
        xml += "<para>" + make_paragraph(rng, topic, para_bytes) + "</para>\n";
      }
      xml += "</subsection>\n";
    }
    xml += "</section>\n";
  }
  xml += "</research-paper>\n";
  return xml;
}

std::string url_of(int rank) { return "doc://corpus/" + std::to_string(rank); }

struct Fetch {
  int rank = 0;
  bool relevant = true;
};

std::vector<Fetch> make_schedule(std::uint64_t seed) {
  std::vector<double> cum;
  double acc = 0.0;
  for (int r = 0; r < kDocs; ++r) {
    acc += std::pow(static_cast<double>(r + 1), -kZipf);
    cum.push_back(acc);
  }
  Rng rng(derive_seed(seed, 2));
  std::vector<Fetch> out;
  for (int j = 0; j < kFetches; ++j) {
    const double u = rng.next_double() * cum.back();
    const auto rank = static_cast<int>(
        std::min<std::ptrdiff_t>(std::upper_bound(cum.begin(), cum.end(), u) - cum.begin(),
                                 kDocs - 1));
    out.push_back({rank, j % 2 == 0});
  }
  return out;
}

mobiweb::FetchOptions options_for(const Fetch& f) {
  mobiweb::FetchOptions o;
  o.lod = doc::Lod::kParagraph;
  o.rank = doc::RankBy::kIc;
  o.relevance_threshold = f.relevant ? -1.0 : kIrrelevantF;
  return o;
}

doc::LinearizeOptions linearize_options() {
  doc::LinearizeOptions lin;
  lin.lod = doc::Lod::kParagraph;
  lin.rank = doc::RankBy::kIc;
  return lin;
}

// What a fetch must deliver: a relevant fetch the full text the server would
// reassemble from the same linearized document; an irrelevant one either the
// same (it completed before reaching F) or a stop at F with no text.
bool fetch_ok(const transmit::SessionResult& s, const std::string& text,
              const Fetch& f, const std::string& expected) {
  if (s.completed) return text == expected;
  if (f.relevant) return false;
  return s.aborted_irrelevant && s.content_received >= kIrrelevantF && text.empty();
}

// The transfer facts two replays of the same fetch must agree on.
struct TransferFacts {
  double response_time = 0.0;
  long frames_sent = 0;
  int rounds = 0;
  transmit::SessionStatus status = transmit::SessionStatus::kGaveUp;
  double content = 0.0;

  bool operator==(const TransferFacts&) const = default;
};

TransferFacts facts_of(const transmit::SessionResult& s) {
  return {s.response_time, s.frames_sent, s.rounds, s.status, s.content_received};
}

struct Corpus {
  std::vector<std::string> xml;
  std::unique_ptr<mobiweb::Server> server;
  std::vector<std::string> expected_text;  // per rank
  std::vector<mobiweb::Bytes> payloads;    // per rank, linearized
};

std::unique_ptr<mobiweb::Server> publish(const std::vector<std::string>& xml,
                                         Tracer* tracer) {
  auto server = std::make_unique<mobiweb::Server>();
  for (int r = 0; r < kDocs; ++r) {
    const Scope scope(tracer, "core.publish", static_cast<std::uint64_t>(r));
    server->publish_xml(url_of(r), xml[static_cast<std::size_t>(r)]);
  }
  return server;
}

// The set-up: publishes the corpus (spans per document when traced) and
// derives what every fetch must deliver.
void set_up(Corpus& corpus, Tracer* tracer) {
  corpus.server = publish(corpus.xml, tracer);
  for (int r = 0; r < kDocs; ++r) {
    const doc::StructuralCharacteristic* sc = corpus.server->find(url_of(r));
    const doc::LinearDocument linear = doc::linearize(*sc, linearize_options());
    corpus.expected_text.push_back(doc::reassemble_text(linear));
    corpus.payloads.push_back(linear.payload);
  }
}

// Seconds to publish the whole corpus again into a fresh server.
double time_publish(Corpus& corpus) {
  const auto t0 = Clock::now();
  corpus.server = publish(corpus.xml, nullptr);
  return seconds_between(t0, Clock::now());
}

mobiweb::BrowseConfig browse_config(std::uint64_t seed) {
  mobiweb::BrowseConfig bc;
  bc.alpha = kAlpha;
  bc.fixed_gamma = kGamma;
  bc.packet_size = kPacketSize;
  bc.seed = derive_seed(seed, 3);
  return bc;
}

// One replay of the schedule through BrowseSession::fetch.
struct Replay {
  std::vector<double> fetch_us;
  std::vector<TransferFacts> facts;
  long failed = 0;
};

Replay replay_fetches(const Corpus& corpus, const std::vector<Fetch>& schedule,
                      std::uint64_t seed) {
  Replay out;
  mobiweb::BrowseSession session(*corpus.server, browse_config(seed));
  for (const Fetch& f : schedule) {
    const mobiweb::FetchOptions options = options_for(f);
    const auto t0 = Clock::now();
    const mobiweb::FetchResult res = session.fetch(url_of(f.rank), options);
    out.fetch_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    out.facts.push_back(facts_of(res.session));
    if (!fetch_ok(res.session, res.text, f, corpus.expected_text[static_cast<std::size_t>(f.rank)])) {
      ++out.failed;
    }
  }
  return out;
}

// One replay of the schedule through the public calls fetch() is made of,
// one span each. Mirrors BrowseSession::fetch for a non-adaptive, plain
// (non-resilient) client: same channel seed, same doc-id sequence.
struct TracedReplay {
  Replay replay;
  std::vector<std::pair<std::size_t, std::vector<std::size_t>>> receive_sets;
  double rounds = 0.0;
  long frames_sent = 0;
  long frames_corrupted = 0;
  double frame_bytes = 0.0;  // bytes of every frame the sessions moved
  double session_s = 0.0;    // host time inside TransferSession::run
};

TracedReplay replay_traced(const Corpus& corpus, const std::vector<Fetch>& schedule,
                           std::uint64_t seed, Tracer& tracer) {
  TracedReplay out;
  const mobiweb::BrowseConfig bc = browse_config(seed);
  mobiweb::channel::ChannelConfig cc;
  cc.bandwidth_bps = bc.bandwidth_bps;
  cc.seed = bc.seed;
  mobiweb::channel::WirelessChannel channel(
      cc, std::make_unique<mobiweb::channel::IidErrorModel>(bc.alpha));
  std::uint16_t doc_id = 1;
  for (std::size_t j = 0; j < schedule.size(); ++j) {
    const Fetch& f = schedule[j];
    transmit::SessionResult result;
    std::string text;
    std::optional<doc::LinearDocument> linear;
    std::optional<transmit::DocumentTransmitter> tx;
    std::optional<transmit::ClientReceiver> rx;
    const auto t0 = Clock::now();
    double session_s = 0.0;
    {
      const Scope fetch_span(&tracer, "core.fetch", j);
      const doc::StructuralCharacteristic* sc = corpus.server->find(url_of(f.rank));
      {
        const Scope s(&tracer, "doc.linearize", j);
        linear.emplace(doc::linearize(*sc, linearize_options()));
      }
      transmit::TransmitterConfig tc;
      tc.packet_size = bc.packet_size;
      tc.gamma = bc.fixed_gamma;
      tc.doc_id = doc_id++;
      if (doc_id == 0) doc_id = 1;
      {
        const Scope s(&tracer, "transmit.encode", j);
        tx.emplace(std::move(*linear), tc);
      }
      transmit::ReceiverConfig rc;
      rc.doc_id = tc.doc_id;
      rc.m = tx->m();
      rc.n = tx->n();
      rc.packet_size = bc.packet_size;
      rc.payload_size = tx->payload_size();
      rc.caching = bc.caching;
      {
        const Scope s(&tracer, "transmit.receiver_init", j);
        rx.emplace(rc, tx->document().segments);
      }
      {
        const Scope s(&tracer, "transmit.session", j);
        transmit::SessionConfig scfg;
        scfg.relevance_threshold = options_for(f).relevance_threshold;
        transmit::TransferSession session(*tx, *rx, channel, scfg);
        const auto s0 = Clock::now();
        result = session.run();
        session_s = seconds_between(s0, Clock::now());
      }
      if (rx->complete()) {
        mobiweb::Bytes payload;
        {
          const Scope s(&tracer, "ida.reconstruct", j);
          payload = rx->reconstruct();
        }
        const Scope s(&tracer, "doc.reassemble", j);
        doc::LinearDocument rebuilt;
        rebuilt.payload = std::move(payload);
        rebuilt.segments = tx->document().segments;
        text = doc::reassemble_text(rebuilt);
      }
    }
    out.replay.fetch_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    out.replay.facts.push_back(facts_of(result));
    if (!fetch_ok(result, text, f, corpus.expected_text[static_cast<std::size_t>(f.rank)])) {
      ++out.replay.failed;
    }
    out.rounds += result.rounds;
    out.session_s += session_s;
    out.frame_bytes +=
        static_cast<double>(result.frames_sent) * static_cast<double>(tx->frame(0).size());
    if (rx->complete() && out.receive_sets.size() < kMaxReceiveSets) {
      std::vector<std::size_t> held;
      for (std::size_t i = 0; i < tx->n(); ++i) {
        if (rx->has_packet(i)) held.push_back(i);
      }
      out.receive_sets.emplace_back(static_cast<std::size_t>(f.rank), std::move(held));
    }
  }
  out.frames_sent = channel.stats().frames_sent;
  out.frames_corrupted = channel.stats().frames_corrupted;
  return out;
}

double fetches_per_s(const std::vector<double>& fetch_us) {
  double total = 0.0;
  for (const double us : fetch_us) total += us;
  return total > 0.0 ? static_cast<double>(fetch_us.size()) / (total / 1e6) : 0.0;
}

void report_untraced(const Options& options, Report& report, Corpus& corpus,
                     const std::vector<Fetch>& schedule) {
  // The first replay warms the process (generator matrices, allocator) and
  // is not timed; the simulated-clock metrics are taken from it.
  const Replay warm = replay_fetches(corpus, schedule, options.seed);
  report.attempt(static_cast<long>(warm.fetch_us.size()), warm.failed);
  std::vector<double> sim_times;
  long unfinished = 0;
  for (const TransferFacts& t : warm.facts) {
    sim_times.push_back(t.response_time);
    unfinished += t.status == transmit::SessionStatus::kDegraded ||
                  t.status == transmit::SessionStatus::kGaveUp;
  }
  // Every replay starts with publishing the corpus kSetupsPerReplay times
  // into fresh servers, so set-up samples spread over the measuring time like
  // the fetches do. Each metric is the median over whole replays (set-up:
  // over every publish).
  std::vector<double> rate;
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  std::vector<double> setup_s;
  const auto start = Clock::now();
  while (static_cast<int>(rate.size()) < kMinReplays ||
         seconds_between(start, Clock::now()) < options.seconds) {
    for (int k = 0; k < kSetupsPerReplay; ++k) setup_s.push_back(time_publish(corpus));
    const Replay r = replay_fetches(corpus, schedule, options.seed);
    report.attempt(static_cast<long>(r.fetch_us.size()), r.failed);
    rate.push_back(fetches_per_s(r.fetch_us));
    p50_us.push_back(quantile(r.fetch_us, 0.5));
    p99_us.push_back(quantile(r.fetch_us, 0.99));
  }
  report.metric("sessions_per_s", median(rate), "1/s");
  report.metric("session_host_us_p50", median(p50_us), "us");
  report.metric("session_host_us_p99", median(p99_us), "us");
  report.metric("setup_s", median(setup_s), "s");
  report.metric("peak_rss_mb", peak_rss_bytes() / 1e6, "MB");
  report.metric("sim_session_time_s_p50", quantile(sim_times, 0.5), "s");
  report.metric("sim_session_time_s_p99", quantile(sim_times, 0.99), "s");
  report.metric("sim_completed_fraction",
                1.0 - static_cast<double>(unfinished) / static_cast<double>(sim_times.size()),
                "fraction");
}

void report_traced(const Options& options, Report& report, Corpus& corpus,
                   const std::vector<Fetch>& schedule, Tracer& tracer) {
  const Replay warm = replay_fetches(corpus, schedule, options.seed);
  report.attempt(static_cast<long>(warm.fetch_us.size()), warm.failed);
  const auto start = Clock::now();
  std::vector<double> untraced_rate;
  std::vector<double> traced_rate;
  TracedReplay first;
  // Alternate traced and plain replays: at least one of each, at most
  // kMaxTracedReplays of each, within the measuring time.
  for (int pass = 0; pass < 2 || (pass < 2 * kMaxTracedReplays &&
                                   seconds_between(start, Clock::now()) < options.seconds);
       ++pass) {
    if (pass % 2 == 1) {
      const Replay r = replay_fetches(corpus, schedule, options.seed);
      report.attempt(static_cast<long>(r.fetch_us.size()), r.failed);
      untraced_rate.push_back(fetches_per_s(r.fetch_us));
      continue;
    }
    TracedReplay t = replay_traced(corpus, schedule, options.seed, tracer);
    long diverged = 0;
    for (std::size_t j = 0; j < t.replay.facts.size(); ++j) {
      diverged += t.replay.facts[j] == warm.facts[j] ? 0 : 1;
    }
    if (diverged > 0) {
      report.fail("traced replay diverged from BrowseSession::fetch on " +
                  std::to_string(diverged) + " fetches");
    }
    report.attempt(static_cast<long>(t.replay.fetch_us.size()), t.replay.failed + diverged);
    traced_rate.push_back(fetches_per_s(t.replay.fetch_us));
    if (pass == 0) first = std::move(t);
  }

  const auto med = [&](const char* span) { return median(tracer.durations_us(span)); };
  report.metric("core.publish_us", med("core.publish"), "us");
  report.metric("doc.linearize_us", med("doc.linearize"), "us");
  report.metric("doc.reassemble_us", med("doc.reassemble"), "us");
  report.metric("transmit.encode_us", med("transmit.encode"), "us");
  report.metric("transmit.session_us", med("transmit.session"), "us");
  report.metric("ida.reconstruct_us", med("ida.reconstruct"), "us");
  report.metric("transmit.rounds_per_session",
                first.rounds / static_cast<double>(schedule.size()), "count");
  report.metric("transmit.intact_frame_ratio",
                1.0 - static_cast<double>(first.frames_corrupted) /
                          static_cast<double>(first.frames_sent),
                "fraction");
  report.metric("trace.overhead_fraction", 1.0 - median(traced_rate) / median(untraced_rate),
                "fraction");
  report.metric("trace.untraced_fraction", tracer.untraced_fraction("core.fetch"), "fraction");

  CodecInputs codec;
  codec.packet_size = kPacketSize;
  codec.gamma = kGamma;
  codec.payloads = corpus.payloads;
  codec.receive_sets = std::move(first.receive_sets);
  const double parse_bps = run_codec_ladder(codec, report, &tracer);
  // Share of session time that checking and parsing the frames it moved takes.
  report.metric("transmit.frame_fraction", first.frame_bytes / parse_bps / first.session_s,
                "fraction");
  // One client and no fleet: the fleet, oracle, telemetry and proxy layers
  // do no work here.
  report.unused({{"fleet.run_s", "s"},
                 {"fleet.rounds", "count"},
                 {"fleet.host_ns_per_round", "ns"},
                 {"fleet.peak_rss_bytes_per_session", "bytes"},
                 {"fleet.engine_ctor_s", "s"},
                 {"fleet.cache.prefill_s", "s"},
                 {"fleet.cache.builds", "count"},
                 {"fleet.cache.hit_ratio", "fraction"},
                 {"sim.walk_us_per_session", "us"},
                 {"sim.suspensions_per_session", "count"},
                 {"sim.frames_lost_fraction", "fraction"},
                 {"sim.parity_sessions", "count"},
                 {"telemetry.export_s", "s"},
                 {"telemetry.document_bytes", "bytes"},
                 {"telemetry.retained_traces", "count"},
                 {"proxy.failovers", "count"},
                 {"proxy.stale_serves", "count"},
                 {"proxy.handoffs", "count"},
                 {"proxy.reconciliations", "count"},
                 {"proxy.packets_refetched_per_reconcile", "count"}});
}

}  // namespace

void run_browse_mixed(const Options& options, Report& report, Tracer* tracer) {
  Corpus corpus;
  for (int r = 0; r < kDocs; ++r) corpus.xml.push_back(make_document(options.seed, r));
  set_up(corpus, tracer);
  for (const mobiweb::Bytes& payload : corpus.payloads) {
    const std::size_t m = (payload.size() + kPacketSize - 1) / kPacketSize;
    if (transmit::cooked_count(m, kGamma) < static_cast<std::size_t>(std::ceil(kGamma * m))) {
      report.fail("corpus document too large for gamma = 1.5 (M = " + std::to_string(m) + ")");
    }
  }
  const std::vector<Fetch> schedule = make_schedule(options.seed);
  if (tracer == nullptr) {
    report_untraced(options, report, corpus, schedule);
  } else {
    report_traced(options, report, corpus, schedule, *tracer);
  }
}

}  // namespace perfbench
