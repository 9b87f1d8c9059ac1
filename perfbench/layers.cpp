#include "layers.h"

#include <cstdio>

namespace perfbench {

LayerCounters LayerCounters::read(
    crpm::Container& c, const crpm::snapshot::ArchiveWriter* archive) {
  LayerCounters lc;
  lc.core = c.stats().snapshot();
  lc.nvm = c.device()->stats().snapshot();
  if (archive != nullptr) lc.archive = archive->writer_stats();
  return lc;
}

namespace {

double per(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

double checkpoint_us(const LayerCounters& before, const LayerCounters& after) {
  const auto& c0 = before.core;
  const auto& c1 = after.core;
  const uint64_t ns = (c1.async_capture_ns - c0.async_capture_ns) +
                      (c1.async_flush_crit_ns - c0.async_flush_crit_ns);
  return per(double(ns) / 1e3, double(c1.epochs - c0.epochs));
}

bool report_layers(const Args& a, const LayerCounters& before,
                   const LayerCounters& after, WindowFacts f, Report* r) {
  Tracer::disarm();
  std::vector<Span> spans = Tracer::collect();
  std::map<std::string, double> self = Tracer::self_ms(spans);

  const auto& c0 = before.core;
  const auto& c1 = after.core;
  const auto n = after.nvm - before.nvm;
  const auto& s0 = before.archive;
  const auto& s1 = after.archive;
  auto d = [](uint64_t x1, uint64_t x0) { return double(x1 - x0); };

  const double epochs = d(c1.epochs, c0.epochs);
  const double captures = d(c1.async_captures, c0.async_captures);
  const double appended = d(s1.epochs_appended, s0.epochs_appended);

  std::map<std::string, double> m;
  // net: the service and the wire.
  m["net.svc_get_ns_p50"] = f.svc_get_ns_p50;
  m["net.svc_put_ns_p50"] = f.svc_put_ns_p50;
  m["net.wire_us"] = f.client_get_us_p50 > 0 && f.svc_get_ns_p50 > 0
                         ? f.client_get_us_p50 - f.svc_get_ns_p50 / 1e3
                         : 0;
  m["net.conn_failures"] = f.conn_failures;
  // core: capture/commit pipeline and the write hook.
  m["core.epochs"] = epochs;
  m["core.captures"] = captures;
  m["core.capture_us_per_capture"] =
      per(d(c1.async_capture_ns, c0.async_capture_ns) / 1e3, captures);
  m["core.backpressure_us"] =
      d(c1.async_backpressure_ns, c0.async_backpressure_ns) / 1e3;
  m["core.steal_copies"] = d(c1.async_steal_copies, c0.async_steal_copies);
  // A high-water mark since the container was opened, not a window delta.
  m["core.inflight_hwm"] = double(c1.async_inflight_hwm);
  m["core.captures_per_durable_put"] = per(captures, f.puts);
  m["core.commit_us_p50"] = f.commit_us_p50;
  m["core.flush_bytes_per_epoch"] =
      per(d(c1.async_flush_bytes, c0.async_flush_bytes), epochs);
  m["core.flush_crit_us_per_epoch"] =
      per(d(c1.async_flush_crit_ns, c0.async_flush_crit_ns) / 1e3, epochs);
  m["core.trace_ms"] = d(c1.trace_ns, c0.trace_ns) / 1e6;
  m["core.cow_count"] = d(c1.cow_count, c0.cow_count);
  m["core.cow_blocks_copied"] = d(c1.cow_blocks_copied, c0.cow_blocks_copied);
  m["core.checkpoint_bytes_per_epoch"] =
      per(d(c1.checkpoint_bytes, c0.checkpoint_bytes), epochs);
  // nvm: emulated persistence instructions and media traffic.
  m["nvm.clwb_per_epoch"] = per(double(n.clwb), epochs);
  m["nvm.sfence_per_epoch"] = per(double(n.sfence), epochs);
  m["nvm.flushed_bytes_per_op"] = per(double(n.flushed_bytes), f.ops);
  m["nvm.media_write_bytes_per_op"] = per(double(n.media_write_bytes), f.ops);
  m["nvm.wbinvd"] = double(n.wbinvd);
  // containers: PHashMap through KvBench.
  m["containers.put_ns_p50"] = f.containers_put_ns_p50;
  m["containers.get_ns_p50"] = f.containers_get_ns_p50;
  // snapshot: the archive writer and the restore paths.
  m["snapshot.epochs_appended"] = appended;
  m["snapshot.bytes_per_epoch"] =
      per(d(s1.bytes_appended, s0.bytes_appended), appended);
  m["snapshot.stall_ms"] = d(s1.stall_ns, s0.stall_ns) / 1e6;
  m["snapshot.capture_ms"] =
      d(c1.archive_capture_ns, c0.archive_capture_ns) / 1e6;
  // A high-water mark since the writer was opened, not a window delta.
  m["snapshot.queue_hwm"] = double(s1.queue_hwm);
  m["snapshot.dropped_epochs"] = d(s1.dropped_epochs, s0.dropped_epochs);
  m["snapshot.lazy_start_ms"] = f.lazy_start_ms;
  m["snapshot.materialize_all_ms"] = f.materialize_all_ms;
  m["snapshot.restore_file_ms"] = f.restore_file_ms;
  m["snapshot.archive_mb"] = f.archive_mb;
  // tier: codec, group commit and writeback of the archive.
  m["tier.coded_frame_ratio"] =
      per(d(s1.coded_frames, s0.coded_frames), appended);
  m["tier.disk_bytes_per_raw_byte"] = per(
      d(s1.bytes_appended, s0.bytes_appended), d(s1.raw_bytes, s0.raw_bytes));
  m["tier.epochs_per_fsync"] = per(appended, d(s1.fsyncs, s0.fsyncs));
  m["tier.fsyncs"] = d(s1.fsyncs, s0.fsyncs);
  // The trace itself.
  for (const auto& [layer, ms] : self) m[layer + ".self_ms"] = ms;
  m["trace.overhead_pct"] = f.trace_overhead_pct;

  static const std::map<std::string, std::string> kUnits = {
      {"net.svc_get_ns_p50", "ns"},
      {"net.svc_put_ns_p50", "ns"},
      {"net.wire_us", "us"},
      {"net.conn_failures", "count"},
      {"core.epochs", "count"},
      {"core.captures", "count"},
      {"core.capture_us_per_capture", "us"},
      {"core.backpressure_us", "us"},
      {"core.steal_copies", "count"},
      {"core.inflight_hwm", "count"},
      {"core.captures_per_durable_put", "ratio"},
      {"core.commit_us_p50", "us"},
      {"core.flush_bytes_per_epoch", "B"},
      {"core.flush_crit_us_per_epoch", "us"},
      {"core.trace_ms", "ms"},
      {"core.cow_count", "count"},
      {"core.cow_blocks_copied", "count"},
      {"core.checkpoint_bytes_per_epoch", "B"},
      {"nvm.clwb_per_epoch", "count"},
      {"nvm.sfence_per_epoch", "count"},
      {"nvm.flushed_bytes_per_op", "B"},
      {"nvm.media_write_bytes_per_op", "B"},
      {"nvm.wbinvd", "count"},
      {"containers.put_ns_p50", "ns"},
      {"containers.get_ns_p50", "ns"},
      {"snapshot.epochs_appended", "count"},
      {"snapshot.bytes_per_epoch", "B"},
      {"snapshot.stall_ms", "ms"},
      {"snapshot.capture_ms", "ms"},
      {"snapshot.queue_hwm", "count"},
      {"snapshot.dropped_epochs", "count"},
      {"snapshot.lazy_start_ms", "ms"},
      {"snapshot.materialize_all_ms", "ms"},
      {"snapshot.restore_file_ms", "ms"},
      {"snapshot.archive_mb", "MB"},
      {"tier.coded_frame_ratio", "ratio"},
      {"tier.disk_bytes_per_raw_byte", "ratio"},
      {"tier.epochs_per_fsync", "ratio"},
      {"tier.fsyncs", "count"},
      {"trace.overhead_pct", "%"},
  };
  for (const auto& [name, value] : m) {
    auto it = kUnits.find(name);
    r->add_layer(name, value, it != kUnits.end() ? it->second : "ms");
  }

  std::map<std::string, double> counters = m;
  const std::pair<const char*, double> raw[] = {
      {"raw.core.epochs", epochs},
      {"raw.core.async_captures", captures},
      {"raw.nvm.clwb", double(n.clwb)},
      {"raw.nvm.sfence", double(n.sfence)},
      {"raw.nvm.flushed_bytes", double(n.flushed_bytes)},
      {"raw.nvm.media_write_bytes", double(n.media_write_bytes)},
      {"raw.nvm.msync", double(n.msync)},
      {"raw.snapshot.bytes_appended", d(s1.bytes_appended, s0.bytes_appended)},
      {"raw.snapshot.raw_bytes", d(s1.raw_bytes, s0.raw_bytes)},
      {"raw.window.ops", f.ops},
      {"raw.trace.spans", double(spans.size())},
  };
  for (const auto& [k, v] : raw) counters[k] = v;
  if (!Tracer::write(a.trace_path, spans, counters)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", a.trace_path.c_str());
    return false;
  }
  std::printf("trace: %zu spans -> %s\n", spans.size(), a.trace_path.c_str());
  return true;
}

}  // namespace perfbench
