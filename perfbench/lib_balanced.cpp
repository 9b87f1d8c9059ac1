// lib_balanced: the paper's Fig 7 balanced row (libcrpm-Default over the
// persistent unordered_map, emulated DCPMM cost on, 50:50 zipf get/put),
// in-process and single-threaded, with a synchronous checkpoint every
// kOpsPerEpoch operations instead of on a wall-clock timer: a run of a
// given seed and length does identical work, so its nvm counters repeat
// exactly.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "nvm/device.h"
#include "layers.h"
#include "lib_kv.h"
#include "util/rng.h"
#include "util/zipfian.h"

namespace perfbench {

using crpm::ScrambledZipfianGenerator;
using crpm::Xoshiro256;

namespace {

constexpr uint64_t kOpsPerEpoch = 50'000;
constexpr uint64_t kWarmupEpochs = 10;
constexpr double kEpochsPerSecond = 33;  // ~1 s of work per 33 epochs
// One block of kBlockOps consecutive ops in kSampleEvery is timed op by op
// and its GETs checked; a block contributes the mean GET and the mean PUT
// time of its ops as one sample. A single 0.3 us op falls on either side of
// a cache hit/miss split, so its percentiles jump with the host's cache
// pressure; a 16-op mean does not.
constexpr uint64_t kBlockOps = 16;
constexpr uint64_t kSampleEvery = 16;
static_assert(kOpsPerEpoch % kBlockOps == 0,
              "a block never spans a checkpoint");
constexpr uint64_t kSpanEpochEvery = 32;  // traced run: a span per op
constexpr uint64_t kChunkEpochs = 20;     // epochs per median chunk
constexpr int kRestarts = 7;              // reopens timed for ttfq/ready

uint64_t preload_value(uint64_t seed, uint64_t key) {
  uint64_t x = (seed + 1) * 0x9e3779b97f4a7c15ULL ^ key;
  x ^= x >> 31;
  return x * 0xbf58476d1ce4e5b9ULL;
}

struct LibState {
  std::unique_ptr<LedgerKv> kv;
  std::vector<uint64_t> shadow;  // DRAM copy of every value written
  double setup_s = 0;
};

// Restart of the preloaded store: reopen() (local recovery), then the time
// to a first correct GET (ttfq) and to a first PUT taken through a
// checkpoint (ready).
bool time_restart(LibState* s, uint64_t key, double* ttfq_ms,
                  double* ready_ms) {
  const int64_t t0 = now_ns();
  s->kv->reopen();
  uint64_t v = 0;
  const bool found = s->kv->get(key, &v);
  *ttfq_ms = double(now_ns() - t0) / 1e6;
  s->kv->put(key, s->shadow[key]);
  s->kv->checkpoint();
  *ready_ms = double(now_ns() - t0) / 1e6;
  return found && v == s->shadow[key];
}

// Builds the stack and preloads every key the way run_kv() does (a
// checkpoint every 16Ki inserts).
void setup_once(const Args& a, LibState* s) {
  const int64_t t0 = now_ns();
  s->kv = std::make_unique<LedgerKv>(lib_config(a.keys));
  s->shadow.assign(a.keys, 0);
  for (uint64_t k = 0; k < a.keys; ++k) {
    s->shadow[k] = preload_value(a.seed, k);
    s->kv->insert(k, s->shadow[k]);
    if ((k & 0x3FFF) == 0x3FFF) s->kv->checkpoint();
  }
  s->kv->checkpoint();
  s->setup_s = double(now_ns() - t0) / 1e9;
}

struct Window {
  Samples get, put, durable, ckpt;
  uint64_t ops = 0;
  uint64_t attempted = 0, failed = 0;  // GETs checked against the shadow
  double seconds = 0, cpu_us_per_op = 0, rss_peak_mb = 0;
  LayerCounters before, after;
};

class LibRun {
 public:
  LibRun(const Args& a, LibState& s)
      : s_(s), rng_(a.seed * 7919 + 1), zipf_(a.keys, 0.99, a.seed) {}

  Window epochs(uint64_t n, bool record);

 private:
  LibState& s_;
  Xoshiro256 rng_;
  ScrambledZipfianGenerator zipf_;
  uint64_t counter_ = 0;
  uint64_t op_index_ = 0;
};

Window LibRun::epochs(uint64_t n, bool record) {
  Window w;
  LedgerKv& kv = *s_.kv;
  RssPeak rss;
  rss.sample();
  w.before = LayerCounters::read(kv.container(), nullptr);
  const double cpu0 = process_cpu_ns();
  const int64_t t0 = now_ns();
  std::vector<int64_t> pending;  // issue times of timed PUTs this epoch
  int64_t get_ns = 0, put_ns = 0;  // the timed block so far
  uint64_t gets = 0, puts = 0;
  for (uint64_t e = 0; e < n; ++e) {
    const bool spans = Tracer::armed() && e % kSpanEpochEvery == 0;
    std::unique_ptr<Tracer::Scope> epoch_span;
    if (spans) {
      epoch_span = std::make_unique<Tracer::Scope>("lib.epoch", Layer::kBench);
    }
    for (uint64_t i = 0; i < kOpsPerEpoch; ++i) {
      const uint64_t key = zipf_.next(rng_);
      const bool is_put = rng_.next_below(1000) < 500;
      const bool timed = (op_index_ / kBlockOps) % kSampleEvery == 0;
      const int64_t ts = timed ? now_ns() : 0;
      if (is_put) {
        const uint64_t v = ++counter_;
        s_.shadow[key] = v;
        if (spans) {
          Tracer::Scope sp("containers.put", Layer::kContainers);
          kv.put(key, v);
        } else {
          kv.put(key, v);
        }
        if (timed) {
          put_ns += now_ns() - ts;
          ++puts;
          if (record) pending.push_back(ts);
        }
      } else {
        uint64_t v = 0;
        bool found;
        if (spans) {
          Tracer::Scope sp("containers.get", Layer::kContainers);
          found = kv.get(key, &v);
        } else {
          found = kv.get(key, &v);
        }
        if (timed) {
          get_ns += now_ns() - ts;
          ++gets;
          ++w.attempted;
          if (!found || v != s_.shadow[key]) ++w.failed;
        }
      }
      if (++op_index_ % kBlockOps == 0 && timed) {
        if (record && gets > 0) w.get.add(get_ns / int64_t(gets));
        if (record && puts > 0) w.put.add(put_ns / int64_t(puts));
        get_ns = put_ns = 0;
        gets = puts = 0;
      }
    }
    const int64_t c0 = now_ns();
    {
      Tracer::Scope sp("core.checkpoint", Layer::kCore);
      kv.checkpoint();
    }
    const int64_t c1 = now_ns();
    if (record) {
      w.ckpt.add(c1 - c0);
      for (int64_t issued : pending) w.durable.add(c1 - issued);
    }
    pending.clear();
    w.ops += kOpsPerEpoch;
    rss.sample();
  }
  w.seconds = double(now_ns() - t0) / 1e9;
  w.cpu_us_per_op = (process_cpu_ns() - cpu0) / double(w.ops) / 1e3;
  w.after = LayerCounters::read(kv.container(), nullptr);
  w.rss_peak_mb = rss.peak_mb();
  return w;
}

}  // namespace

LedgerKv::LedgerKv(const crpm::KvConfig& cfg) : buckets_(cfg.max_keys) {
  // make_kv()'s sizing for an unordered_map: node + slack, 8 B of bucket
  // per key, 25% headroom, 1 MiB, page-rounded.
  const uint64_t data =
      ((cfg.max_keys * 48 + cfg.max_keys * 8) * 5 / 4 + (1 << 20) + 4095) &
      ~uint64_t{4095};
  opt_.segment_size = cfg.segment_size;
  opt_.block_size = cfg.block_size;
  opt_.main_region_size = data;
  opt_.eager_cow_segments = cfg.eager_cow_segments;
  opt_.wbinvd_threshold = cfg.wbinvd_threshold;
  opt_.async_checkpoint = cfg.async_checkpoint;
  opt_.async_workers = cfg.async_workers;
  dev_ = std::make_unique<crpm::HeapNvmDevice>(
      crpm::Container::required_device_size(opt_));
  dev_->set_cost_model(cfg.cost_model);
  reopen();
}

void LedgerKv::reopen() {
  map_.reset();
  policy_.reset();
  policy_ = std::make_unique<crpm::CrpmPolicy>(dev_.get(), opt_);
  map_ = std::make_unique<Map>(*policy_, buckets_);
}

crpm::KvMetrics LedgerKv::metrics() const {
  crpm::KvMetrics m;
  auto s = policy_->container().stats().snapshot();
  m.checkpoint_bytes = s.checkpoint_bytes;
  m.trace_ns = s.trace_ns;
  m.epochs = s.epochs;
  m.async_capture_ns = s.async_capture_ns;
  m.async_backpressure_ns = s.async_backpressure_ns;
  m.async_steal_copies = s.async_steal_copies;
  auto d = policy_->container().device()->stats().snapshot();
  m.sfence = d.sfence;
  m.media_write_bytes = d.media_write_bytes;
  return m;
}

crpm::KvConfig lib_config(uint64_t keys) {
  crpm::KvConfig c;
  c.max_keys = keys;
  c.cost_model = crpm::CostModel::realistic();
  return c;
}

bool ledger_matches_make_kv() {
  const uint64_t keys = 20000;
  auto ref = crpm::make_kv(crpm::SystemKind::kCrpmDefault,
                           crpm::StructureKind::kUnorderedMap,
                           lib_config(keys));
  LedgerKv mine(lib_config(keys));
  crpm::KvBench* kvs[] = {ref.get(), &mine};
  for (crpm::KvBench* kv : kvs) {
    Xoshiro256 rng(3);
    for (uint64_t k = 0; k < keys; ++k) kv->insert(k, k);
    kv->checkpoint();
    for (int e = 0; e < 5; ++e) {
      for (int i = 0; i < 5000; ++i) {
        uint64_t k = rng.next_below(keys), v = 0;
        if (rng.next_below(2) == 0) {
          kv->put(k, rng.next());
        } else {
          kv->get(k, &v);
        }
      }
      kv->checkpoint();
    }
  }
  const crpm::KvMetrics x = ref->metrics(), y = mine.metrics();
  std::printf("make_kv:  sfence=%llu media=%llu ckpt=%llu epochs=%llu\n"
              "LedgerKv: sfence=%llu media=%llu ckpt=%llu epochs=%llu\n",
              (unsigned long long)x.sfence,
              (unsigned long long)x.media_write_bytes,
              (unsigned long long)x.checkpoint_bytes,
              (unsigned long long)x.epochs, (unsigned long long)y.sfence,
              (unsigned long long)y.media_write_bytes,
              (unsigned long long)y.checkpoint_bytes,
              (unsigned long long)y.epochs);
  return x.sfence == y.sfence && x.media_write_bytes == y.media_write_bytes &&
         x.checkpoint_bytes == y.checkpoint_bytes && x.epochs == y.epochs;
}

bool run_lib_balanced(const Args& a, Report* r) {
  if (!ledger_matches_make_kv()) {
    std::fprintf(stderr, "perfbench: LedgerKv no longer counts like "
                         "make_kv(); lib_kv.h is stale\n");
    return false;
  }
  std::vector<double> setup_s(kSetups), ttfq(kRestarts), ready(kRestarts);
  LibState s;
  for (int i = 0; i < kSetups; ++i) {
    s = LibState{};
    setup_once(a, &s);
    setup_s[i] = s.setup_s;
    std::printf("setup %d: %.3fs\n", i, s.setup_s);
  }
  Xoshiro256 probe_rng(a.seed);
  for (int i = 0; i < kRestarts; ++i) {
    if (!time_restart(&s, probe_rng.next_below(a.keys), &ttfq[i],
                      &ready[i])) {
      std::fprintf(stderr, "perfbench: value lost across reopen\n");
      return false;
    }
  }
  std::printf("restarts: ttfq %.3fms ready %.3fms (median of %d)\n",
              median(ttfq), median(ready), kRestarts);

  LibRun run(a, s);
  run.epochs(kWarmupEpochs, false);
  const uint64_t n = std::max<uint64_t>(
      2, uint64_t(a.seconds * kEpochsPerSecond + 0.5));
  const uint64_t untraced = a.trace ? std::max<uint64_t>(1, n / 2) : n;
  // Medians over chunks of kChunkEpochs: a burst of interference from
  // outside the process moves one chunk, not the run's figure. The media
  // bytes are an exact count, summed over the whole window.
  std::vector<double> ops_s, get50, get90, put50, dur50, dur90, cpu;
  Samples ckpt;
  uint64_t ops = 0, media_bytes = 0, attempted = 0, failed = 0;
  double rss_peak = 0;
  for (uint64_t done = 0; done < untraced; done += kChunkEpochs) {
    Window w = run.epochs(std::min(kChunkEpochs, untraced - done), true);
    ops_s.push_back(double(w.ops) / w.seconds);
    get50.push_back(w.get.pct_us(0.5));
    get90.push_back(w.get.pct_us(0.9));
    put50.push_back(w.put.pct_us(0.5));
    dur50.push_back(w.durable.pct_us(0.5));
    dur90.push_back(w.durable.pct_us(0.9));
    cpu.push_back(w.cpu_us_per_op);
    ckpt.merge(w.ckpt);
    ops += w.ops;
    media_bytes += (w.after.nvm - w.before.nvm).media_write_bytes;
    attempted += w.attempted;
    failed += w.failed;
    rss_peak = std::max(rss_peak, w.rss_peak_mb);
  }
  const double ops_per_s = median(ops_s);
  std::printf("window: %llu epochs, %llu ops, %.0f ops/s (median of %zu "
              "chunks), ckpt %s, media %llu B\n",
              (unsigned long long)untraced, (unsigned long long)ops,
              ops_per_s, ops_s.size(), ckpt.summary().c_str(),
              (unsigned long long)media_bytes);

  // Final spot check of values the window may not have read back.
  Xoshiro256 probe(a.seed ^ 0x5a5a);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t k = probe.next_below(a.keys);
    uint64_t v = 0;
    ++attempted;
    if (!s.kv->get(k, &v) || v != s.shadow[k]) ++failed;
  }

  r->attempted = attempted;
  r->failed = failed;
  r->add_e2e("setup_s", median(setup_s), "s");
  r->add_e2e("ops_per_s", ops_per_s, "1/s");
  r->add_e2e("get_p50_us", median(get50), "us");
  r->add_e2e("get_p90_us", median(get90), "us");
  r->add_e2e("put_p50_us", median(put50), "us");
  r->add_e2e("durable_put_p50_us", median(dur50), "us");
  r->add_e2e("durable_put_p90_us", median(dur90), "us");
  r->add_e2e("cpu_us_per_op", median(cpu), "us");
  r->add_e2e("ckpt_p50_us", ckpt.pct_us(0.5), "us");
  r->add_e2e("media_bytes_per_op", double(media_bytes) / double(ops), "B");
  r->add_e2e("ttfq_ms", median(ttfq), "ms");
  r->add_e2e("ready_ms", median(ready), "ms");
  r->add_e2e("rss_mb", rss_peak, "MB");

  if (a.trace) {
    Tracer::arm();
    Window tw = run.epochs(n, true);
    const double traced_ops_per_s = double(tw.ops) / tw.seconds;
    r->attempted += tw.attempted;
    r->failed += tw.failed;
    WindowFacts f;
    f.ops = double(tw.ops);
    f.containers_put_ns_p50 = tw.put.pct_us(0.5) * 1e3;
    f.containers_get_ns_p50 = tw.get.pct_us(0.5) * 1e3;
    f.trace_overhead_pct = (ops_per_s / traced_ops_per_s - 1) * 100;
    std::printf("traced window: %.0f ops/s (untraced %.0f): overhead "
                "%.1f%%\n",
                traced_ops_per_s, ops_per_s, f.trace_overhead_pct);
    if (!report_layers(a, tw.before, tw.after, f, r)) return false;
  }
  return true;
}

}  // namespace perfbench
