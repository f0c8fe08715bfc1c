#include "workload/log_emitter.h"

#include <algorithm>
#include <cmath>

#include "tcp/flow.h"
#include "util/error.h"
#include "workload/calibration.h"

namespace mcloud::workload {

namespace {

// Hoisted log-medians of the per-session lognormal samplers: computed once
// instead of per record. Same std::log on the same constants — the sampled
// values are bit-identical to the inline form.
const double kLogRttMedian = std::log(cal::kRttMedian);
const double kLogTsrvMedian = std::log(cal::kTsrvMedian);

}  // namespace

double FastLogEmitter::BaseThroughput(DeviceType device,
                                      Direction direction) {
  switch (device) {
    case DeviceType::kPc:
      return cal::kLinkBps_Pc;
    case DeviceType::kIos:
      return direction == Direction::kStore ? cal::kUplinkBps_Ios
                                            : cal::kDownlinkBps_Ios;
    case DeviceType::kAndroid:
      return direction == Direction::kStore ? cal::kUplinkBps_Android
                                            : cal::kDownlinkBps_Android;
  }
  throw Error("invalid DeviceType");
}

void FastLogEmitter::EmitSession(const SessionPlan& session, Rng& rng,
                                 std::vector<LogRecord>& out) const {
  MCLOUD_REQUIRE(!session.ops.empty(), "session has no operations");

  // Per-session (≈ per-connection) network characteristics.
  const Seconds rtt = rng.LogNormal(kLogRttMedian, cal::kRttSigma);
  const bool proxied = rng.Bernoulli(cal::kProxiedShare);

  LogRecord base;
  base.device_type = session.device_type;
  base.device_id = session.device_id;
  base.user_id = session.user_id;
  base.proxied = proxied;

  auto sample_tsrv = [&rng] {
    return rng.LogNormal(kLogTsrvMedian, cal::kTsrvSigma);
  };

  // A serialized transfer pipe per direction: chunks of queued files move
  // back to back at the device's effective throughput (one TCP connection
  // per direction; chunk requests on a connection are sequential, §2.1).
  Seconds pipe_free_store = 0;
  Seconds pipe_free_retrieve = 0;

  for (const FileOp& op : session.ops) {
    const Seconds tsrv_op = sample_tsrv() * 0.3;  // metadata-only exchange
    LogRecord file_op = base;
    file_op.timestamp =
        session.start + static_cast<UnixSeconds>(op.offset);
    file_op.request_type = RequestType::kFileOperation;
    file_op.direction = op.direction;
    file_op.data_volume = 0;
    file_op.server_time = tsrv_op;
    file_op.processing_time = tsrv_op + rtt;
    file_op.avg_rtt = rtt;
    out.push_back(file_op);

    // Chunk transfers: throughput jitters per file (radio conditions vary
    // over a session).
    const double rate =
        BaseThroughput(session.device_type, op.direction) *
        rng.LogNormal(0.0, 0.45);
    Seconds& pipe_free = (op.direction == Direction::kStore)
                             ? pipe_free_store
                             : pipe_free_retrieve;
    Seconds cursor = std::max(op.offset + rtt, pipe_free);
    for (Bytes chunk : tcp::SplitIntoChunks(op.size, kChunkSize)) {
      const Seconds tsrv = sample_tsrv();
      const Seconds transfer = static_cast<double>(chunk) / rate;
      cursor += transfer;

      LogRecord rec = base;
      rec.timestamp = session.start + static_cast<UnixSeconds>(cursor);
      rec.request_type = RequestType::kChunkRequest;
      rec.direction = op.direction;
      rec.data_volume = chunk;
      rec.server_time = tsrv;
      rec.processing_time = transfer + tsrv;
      rec.avg_rtt = rtt * rng.LogNormal(0.0, 0.10);
      out.push_back(rec);

      // Inter-chunk gap: HTTP-level acknowledgment plus client preparation.
      cursor += tsrv + rtt;
    }
    pipe_free = cursor;
  }
}

void FastLogEmitter::EmitSessionColumnar(const SessionPlan& session, Rng& rng,
                                         RecordColumns& out,
                                         EmitScratch& scratch) const {
  MCLOUD_REQUIRE(!session.ops.empty(), "session has no operations");

  // Per-session (≈ per-connection) network characteristics — the scalar
  // draws, in the scalar order.
  const Seconds rtt = rng.LogNormal(kLogRttMedian, cal::kRttSigma);
  const bool proxied = rng.Bernoulli(cal::kProxiedShare);

  // Every draw after `proxied` is a standard normal mapped through
  // exp(mu + sigma·z): two per file op (metadata T_srv, throughput jitter)
  // and two per chunk (T_srv, RTT jitter). One batched fill replaces them
  // all — FillNormal consumes the engine exactly as the scalar calls would.
  std::size_t n_normals = 0;
  std::size_t n_records = 0;
  for (const FileOp& op : session.ops) {
    const std::size_t chunks =
        static_cast<std::size_t>(op.size / kChunkSize) +
        (op.size % kChunkSize != 0 ? 1 : 0);
    n_normals += 2 + 2 * chunks;
    n_records += 1 + chunks;
  }
  scratch.normals.resize(n_normals);
  rng.FillNormal(scratch.normals);
  const double* z = scratch.normals.data();

  // Grow geometrically: reserve(size()+n) every session would reallocate
  // to the exact size each time and turn emission quadratic.
  if (out.capacity() < out.size() + n_records)
    out.reserve(std::max(out.size() + n_records, 2 * out.capacity()));
  const std::uint8_t device_type =
      static_cast<std::uint8_t>(session.device_type);
  const std::uint8_t proxied_u8 = proxied ? 1 : 0;

  Seconds pipe_free_store = 0;
  Seconds pipe_free_retrieve = 0;

  for (const FileOp& op : session.ops) {
    const std::uint8_t direction = static_cast<std::uint8_t>(op.direction);
    const Seconds tsrv_op =
        std::exp(kLogTsrvMedian + cal::kTsrvSigma * *z++) * 0.3;
    out.timestamps.push_back(session.start +
                             static_cast<UnixSeconds>(op.offset));
    out.device_types.push_back(device_type);
    out.device_ids.push_back(session.device_id);
    out.user_ids.push_back(session.user_id);
    out.request_types.push_back(
        static_cast<std::uint8_t>(RequestType::kFileOperation));
    out.directions.push_back(direction);
    out.data_volumes.push_back(0);
    out.processing_times.push_back(tsrv_op + rtt);
    out.server_times.push_back(tsrv_op);
    out.avg_rtts.push_back(rtt);
    out.proxied.push_back(proxied_u8);

    const double rate = BaseThroughput(session.device_type, op.direction) *
                        std::exp(0.0 + 0.45 * *z++);
    Seconds& pipe_free = (op.direction == Direction::kStore)
                             ? pipe_free_store
                             : pipe_free_retrieve;
    Seconds cursor = std::max(op.offset + rtt, pipe_free);
    // Chunk walk without the SplitIntoChunks vector: `full` whole chunks
    // then the tail remainder — the identical chunk sequence.
    const std::size_t full = static_cast<std::size_t>(op.size / kChunkSize);
    const Bytes tail = op.size % kChunkSize;
    const std::size_t chunks = full + (tail != 0 ? 1 : 0);
    for (std::size_t c = 0; c < chunks; ++c) {
      const Bytes chunk = c < full ? kChunkSize : tail;
      const Seconds tsrv = std::exp(kLogTsrvMedian + cal::kTsrvSigma * *z++);
      const Seconds transfer = static_cast<double>(chunk) / rate;
      cursor += transfer;

      out.timestamps.push_back(session.start +
                               static_cast<UnixSeconds>(cursor));
      out.device_types.push_back(device_type);
      out.device_ids.push_back(session.device_id);
      out.user_ids.push_back(session.user_id);
      out.request_types.push_back(
          static_cast<std::uint8_t>(RequestType::kChunkRequest));
      out.directions.push_back(direction);
      out.data_volumes.push_back(chunk);
      out.processing_times.push_back(transfer + tsrv);
      out.server_times.push_back(tsrv);
      out.avg_rtts.push_back(rtt * std::exp(0.0 + 0.10 * *z++));
      out.proxied.push_back(proxied_u8);

      cursor += tsrv + rtt;
    }
    pipe_free = cursor;
  }
}

}  // namespace mcloud::workload
