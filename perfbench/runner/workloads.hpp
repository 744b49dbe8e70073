// The benchmark's workloads and the codec ladder they share.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "report.hpp"
#include "util/bytes.hpp"

namespace perfbench {

// Batch runs of 1M sessions through fleet::FleetEngine.
void run_fleet_weak(const Options& options, Report& report, Tracer* tracer);
void run_proxy_edge(const Options& options, Report& report, Tracer* tracer);
// Closed loop of one BrowseSession client over a published XML corpus.
void run_browse_mixed(const Options& options, Report& report, Tracer* tracer);

// Inputs of the codec ladder, taken from the workload itself.
struct CodecInputs {
  std::size_t packet_size = 256;
  double gamma = 1.5;
  std::vector<mobiweb::Bytes> payloads;  // linearized document payloads
  // Receive sets seen at decode time: (payload index, cooked indices held).
  std::vector<std::pair<std::size_t, std::vector<std::size_t>>> receive_sets;
};

// Measures each codec layer on `inputs` and reports it together with its
// share of the layer below: gf.*, ida.*, packet.*, util.crc32_mbps. Returns
// the parse rate (frame bytes checked and parsed per second), the per-frame
// work a receiving client does.
double run_codec_ladder(const CodecInputs& inputs, Report& report, Tracer* tracer);

}  // namespace perfbench
