// Codec ladder: the GF(2^8) row kernel, IDA encode, IDA decode (the receive
// sets the workload produced, and redundancy-first worst cases), framing and
// CRC-32, each timed in batches over the workload's own payloads. Every rate
// is the median over batches, and each layer is also given as the share of
// its time that the layer below would need for the same work: the row-kernel
// bytes the layer must process, at the single-thread kernel rate, over the
// layer's wall time. IDA shards large jobs across the thread pool, so a share
// above 1 means its rows ran in parallel.
#include <algorithm>
#include <functional>

#include "gf256/gf256.hpp"
#include "ida/ida.hpp"
#include "packet/packet.hpp"
#include "transmit/transmitter.hpp"
#include "util/check.hpp"
#include "util/crc.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace ida = mobiweb::ida;
namespace packet = mobiweb::packet;
using mobiweb::Bytes;

constexpr double kStepBudgetS = 0.25;
constexpr int kMinBatches = 7;
constexpr int kMaxBatches = 400;

// Median seconds of one call of `batch`, over repeated calls within the
// step budget.
double time_batches(Tracer* tracer, const char* span, const std::function<void()>& batch) {
  std::vector<double> seconds;
  const auto step_start = Clock::now();
  while (static_cast<int>(seconds.size()) < kMinBatches ||
         (seconds_between(step_start, Clock::now()) < kStepBudgetS &&
          static_cast<int>(seconds.size()) < kMaxBatches)) {
    const Scope scope(tracer, span, seconds.size());
    const auto t0 = Clock::now();
    batch();
    seconds.push_back(seconds_between(t0, Clock::now()));
  }
  return median(seconds);
}

// A decode job: the first m entries of `cooked` are what the decoder uses.
struct DecodeJob {
  std::size_t m = 0;
  std::size_t n = 0;
  std::vector<std::pair<std::size_t, Bytes>> cooked;
  std::size_t erased = 0;  // clear rows missing from the cooked set
};

DecodeJob make_job(const std::vector<Bytes>& encoded, std::size_t m,
                   const std::vector<std::size_t>& order) {
  DecodeJob job;
  job.m = m;
  job.n = encoded.size();
  for (const std::size_t index : order) {
    if (job.cooked.size() == m) break;
    job.cooked.emplace_back(index, encoded[index]);
  }
  MOBIWEB_CHECK_MSG(job.cooked.size() == m, "ladder: receive set smaller than m");
  for (const auto& entry : job.cooked) job.erased += entry.first >= m ? 1 : 0;
  return job;
}

}  // namespace

double run_codec_ladder(const CodecInputs& inputs, Report& report, Tracer* tracer) {
  const std::size_t ps = inputs.packet_size;

  // Raw packets and the full cooked set of every payload, built once.
  std::vector<std::vector<Bytes>> raw;
  std::vector<std::vector<Bytes>> encoded;
  std::vector<ida::Encoder> encoders;
  double payload_bytes = 0.0;
  double encode_kernel_bytes = 0.0;
  for (const Bytes& payload : inputs.payloads) {
    raw.push_back(ida::split_payload(mobiweb::ByteSpan(payload), ps));
    const std::size_t m = raw.back().size();
    const std::size_t n = mobiweb::transmit::cooked_count(m, inputs.gamma);
    encoders.emplace_back(m, n);
    encoded.push_back(encoders.back().encode(raw.back()));
    payload_bytes += static_cast<double>(m * ps);
    encode_kernel_bytes += static_cast<double>((n - m) * m * ps);
  }

  // Layer 0: the GF(2^8) row kernel on 256-byte rows cut from the payloads.
  // The rows are few enough to stay in L1, as one document's rows do while
  // it is encoded, so this is the kernel's compute rate.
  constexpr std::size_t kKernelRows = 32;
  std::vector<const mobiweb::gf::Elem*> rows;
  for (const auto& packets : raw) {
    for (const Bytes& p : packets) {
      if (p.size() >= 256 && rows.size() < kKernelRows) rows.push_back(p.data());
    }
  }
  MOBIWEB_CHECK_MSG(!rows.empty(), "ladder: no 256-byte rows");
  std::vector<mobiweb::gf::Elem> acc(256, 0);
  constexpr std::size_t kRowsPerBatch = 8192;
  const double gf_s = time_batches(tracer, "ladder.gf_mul_add_row", [&] {
    for (std::size_t i = 0; i < kRowsPerBatch; ++i) {
      const auto c = static_cast<mobiweb::gf::Elem>(1 + i % 255);
      mobiweb::gf::mul_add_row(acc.data(), rows[i % rows.size()], c, 256);
    }
  });
  const double gf_bps = static_cast<double>(kRowsPerBatch * 256) / gf_s;
  report.metric("gf.mul_add_row_mbps", gf_bps / 1e6, "MB/s");

  // Layer 1: IDA encode of every payload.
  const double encode_s = time_batches(tracer, "ladder.ida_encode", [&] {
    for (std::size_t d = 0; d < raw.size(); ++d) {
      const std::vector<Bytes> out = encoders[d].encode(raw[d]);
      MOBIWEB_CHECK(out.size() == encoded[d].size());
    }
  });
  report.metric("ida.encode_mbps", payload_bytes / encode_s / 1e6, "MB/s");
  report.metric("ida.encode_kernel_fraction", encode_kernel_bytes / gf_bps / encode_s,
                "fraction");

  // Layer 1': IDA decode on the recorded receive sets (clear-heavy) and on
  // redundancy-first sets (every redundancy row used: the worst case).
  std::vector<DecodeJob> clear_jobs;
  for (const auto& [doc, held] : inputs.receive_sets) {
    std::vector<std::size_t> order = held;
    std::sort(order.begin(), order.end());
    clear_jobs.push_back(make_job(encoded[doc], raw[doc].size(), order));
  }
  std::vector<DecodeJob> worst_jobs;
  for (std::size_t d = 0; d < encoded.size(); ++d) {
    const std::size_t m = raw[d].size();
    std::vector<std::size_t> order;
    for (std::size_t i = encoded[d].size(); i-- > m;) order.push_back(i);
    for (std::size_t i = 0; i < m; ++i) order.push_back(i);
    worst_jobs.push_back(make_job(encoded[d], m, order));
  }
  const auto decode_rung = [&](const std::vector<DecodeJob>& jobs, const char* span,
                               const std::string& prefix) {
    double bytes = 0.0;
    double kernel_bytes = 0.0;
    double erased = 0.0;
    for (const DecodeJob& job : jobs) {
      bytes += static_cast<double>(job.m * ps);
      kernel_bytes += static_cast<double>(job.erased * job.m * ps);
      erased += static_cast<double>(job.erased);
    }
    double s = 0.0;
    if (!jobs.empty()) {
      s = time_batches(tracer, span, [&] {
        for (const DecodeJob& job : jobs) {
          const std::vector<Bytes> out = ida::Decoder(job.m, job.n).decode(job.cooked);
          MOBIWEB_CHECK(out.size() == job.m);
        }
      });
    }
    report.metric(prefix + "_mbps", s > 0.0 ? bytes / s / 1e6 : 0.0, "MB/s");
    report.metric(prefix + "_kernel_fraction", s > 0.0 ? kernel_bytes / gf_bps / s : 0.0,
                  "fraction");
    return jobs.empty() ? 0.0 : erased / static_cast<double>(jobs.size());
  };
  report.metric("ida.erased_rows_per_decode",
                decode_rung(clear_jobs, "ladder.ida_decode_clear", "ida.decode_clear"),
                "count");
  decode_rung(worst_jobs, "ladder.ida_decode_worst", "ida.decode_worst");

  // Layer 2: framing (header + payload + CRC trailer) and parsing of every
  // cooked packet, then CRC-32 alone over the same frames.
  std::vector<packet::Packet> packets;
  for (std::size_t d = 0; d < encoded.size(); ++d) {
    const std::size_t m = raw[d].size();
    const std::size_t n = encoded[d].size();
    for (std::size_t i = 0; i < n; ++i) {
      packet::Packet p;
      p.doc_id = static_cast<std::uint16_t>(d + 1);
      p.seq = static_cast<std::uint16_t>(i);
      p.total = static_cast<std::uint16_t>(n);
      p.flags = static_cast<std::uint16_t>((i < m ? packet::kFlagClearText : 0) |
                                           (i + 1 == n ? packet::kFlagLast : 0));
      p.payload = encoded[d][i];
      packets.push_back(std::move(p));
    }
  }
  std::vector<Bytes> frames;
  double frame_bytes = 0.0;
  for (const packet::Packet& p : packets) {
    frames.push_back(packet::encode(p));
    frame_bytes += static_cast<double>(frames.back().size());
  }
  const double frame_s = time_batches(tracer, "ladder.packet_frame", [&] {
    for (const packet::Packet& p : packets) {
      const Bytes frame = packet::encode(p);
      MOBIWEB_CHECK(packet::decode(mobiweb::ByteSpan(frame)).has_value());
    }
  });
  const double parse_s = time_batches(tracer, "ladder.packet_parse", [&] {
    for (const Bytes& f : frames) {
      MOBIWEB_CHECK(packet::decode(mobiweb::ByteSpan(f)).has_value());
    }
  });
  // CRC-32 over each frame's header + payload, checked against its trailer.
  double crc_bytes = 0.0;
  for (const Bytes& f : frames) crc_bytes += static_cast<double>(f.size() - packet::kTrailerSize);
  const double crc_s = time_batches(tracer, "ladder.crc32", [&] {
    for (const Bytes& f : frames) {
      const std::size_t body = f.size() - packet::kTrailerSize;
      MOBIWEB_CHECK(mobiweb::crc32(mobiweb::ByteSpan(f.data(), body)) ==
                    mobiweb::get_u32(mobiweb::ByteSpan(f), body));
    }
  });
  report.metric("packet.frame_mbps", frame_bytes / frame_s / 1e6, "MB/s");
  report.metric("util.crc32_mbps", crc_bytes / crc_s / 1e6, "MB/s");
  // Framing computes the CRC once on encode and once on decode.
  report.metric("packet.crc_fraction", 2.0 * crc_s / frame_s, "fraction");
  return frame_bytes / parse_s;
}

}  // namespace perfbench
