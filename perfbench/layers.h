// Layer counters, read from the program's public stats accessors before
// and after a measured window, and the per-layer metrics derived from
// their differences.
#pragma once

#include <map>
#include <string>

#include "core/container.h"
#include "core/crpm_stats.h"
#include "nvm/stats.h"
#include "report.h"
#include "snapshot/writer.h"

namespace perfbench {

struct LayerCounters {
  crpm::CrpmStatsSnapshot core;
  crpm::PersistStatsSnapshot nvm;
  crpm::snapshot::ArchiveWriterStats archive;

  // `archive` may be null (no archive attached).
  static LayerCounters read(crpm::Container& c,
                            const crpm::snapshot::ArchiveWriter* archive);
};

// What the window did besides the counters: operation counts and the
// latencies the benchmark timed itself. Zero means the workload does no
// such work (or the layer is not called on it).
struct WindowFacts {
  double ops = 0;              // completed operations in the window
  double puts = 0;             // PUTs the window made durable
  double svc_get_ns_p50 = 0;   // direct KvService::get, traced run
  double svc_put_ns_p50 = 0;
  double client_get_us_p50 = 0;
  double conn_failures = 0;
  double commit_us_p50 = 0;    // request_checkpoint() -> committed
  double containers_put_ns_p50 = 0;
  double containers_get_ns_p50 = 0;
  double lazy_start_ms = 0;
  double materialize_all_ms = 0;
  double restore_file_ms = 0;
  double archive_mb = 0;
  double trace_overhead_pct = 0;
};

// The async checkpoints of a window, from the container's counters:
// stop-the-world capture plus the flush critical path, in us per epoch (0
// without epochs). Timing each request until its commit instead swung
// 10-35% between runs with the wake-ups of the idle pipeline threads.
double checkpoint_us(const LayerCounters& before, const LayerCounters& after);

// Ends the traced window: collects its spans, adds every per-layer metric
// to `r` (the same names on every workload) from the counter difference
// `after - before`, `facts` and the spans' per-layer self time, and writes
// spans plus counter deltas to a.trace_path. Returns false when the trace
// file cannot be written.
bool report_layers(const Args& a, const LayerCounters& before,
                   const LayerCounters& after, WindowFacts facts, Report* r);

}  // namespace perfbench
