// kvd_get_heavy: the full crpm_kvd stack (KvService with the tiered
// archive, epoll Server over loopback) driven closed-loop from `threads`
// connections, each waiting for its reply: 95% GET, 5% plain PUT, with
// checkpoints on the service's own interval.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "kvd_common.h"
#include "layers.h"
#include "net/client.h"
#include "net/server.h"
#include "oracle.h"
#include "util/rng.h"
#include "util/zipfian.h"

namespace perfbench {

using crpm::ScrambledZipfianGenerator;
using crpm::Xoshiro256;
using crpm::net::Client;
using crpm::net::KvService;
using crpm::net::KvVal;
using crpm::net::Server;
using crpm::net::ServerConfig;

namespace {

constexpr double kWarmupSeconds = 1.0;
constexpr double kSubWindowSeconds = 1.0;
constexpr int64_t kCkptProbeNs = 25'000'000;   // one timed checkpoint / 25 ms
constexpr auto kProbePoll = std::chrono::microseconds(100);
constexpr uint64_t kSvcSampleEvery = 16;       // traced run: direct calls
constexpr uint64_t kGetPermille = 950;
constexpr int kRestarts = 7;  // restarts timed after the set-ups

struct Stack {
  std::unique_ptr<KvService> svc;
  std::unique_ptr<Server> server;

  // The server goes first: its workers call into the service.
  void reset() {
    server.reset();
    svc.reset();
  }
};

// Server workers: half the cores. The load generator's connections run on
// the same cores, and with one worker per core as well the figures swing
// with every scheduling decision.
bool start_server(const Args& a, Stack* st) {
  ServerConfig nc;
  nc.workers = std::max(1u, a.threads / 2);
  st->server = std::make_unique<Server>(*st->svc, nc);
  std::string err;
  if (!st->server->start(&err)) {
    std::fprintf(stderr, "perfbench: server: %s\n", err.c_str());
    return false;
  }
  return true;
}

// Closes whatever runs in `st` and reopens the service on the intact
// directory (local recovery), timing the first correct GET (ttfq) and
// wait_ready() (ready), then starts the server.
bool restart(const Args& a, const std::string& dir, Stack* st,
             double* ttfq_ms, double* ready_ms) {
  st->reset();
  const uint64_t probe = Xoshiro256(a.seed).next_below(a.keys);
  const int64_t r0 = now_ns();
  st->svc = std::make_unique<KvService>(kvd_config(dir, a.keys));
  KvVal v;
  const bool found = st->svc->get(probe, &v);
  *ttfq_ms = double(now_ns() - r0) / 1e6;
  st->svc->wait_ready();
  *ready_ms = double(now_ns() - r0) / 1e6;
  if (!found || !crpm::net::check_value(v, probe, nullptr)) {
    std::fprintf(stderr, "perfbench: key %llu lost across restart\n",
                 (unsigned long long)probe);
    return false;
  }
  return start_server(a, st);
}

// Fresh directory, preload of every key at stamp 0, archive drained, server
// started.
bool setup_once(const Args& a, const std::string& dir, Stack* st,
                double* setup_s) {
  st->reset();
  fresh_dir(dir);
  const int64_t t0 = now_ns();
  st->svc = std::make_unique<KvService>(kvd_config(dir, a.keys));
  for (uint64_t k = 0; k < a.keys; ++k) {
    st->svc->put(k, crpm::net::make_value(k, 0));
  }
  st->svc->flush();
  if (auto* aw = st->svc->store().archive_writer()) aw->drain();
  if (!start_server(a, st)) return false;
  *setup_s = double(now_ns() - t0) / 1e9;
  return true;
}

// Per-connection generator state; lives across the warm-up and the
// measured windows.
struct ClientState {
  Client client;
  Xoshiro256 rng;
  ScrambledZipfianGenerator zipf;
  uint64_t stamp = 0;
  uint64_t op_index = 0;
  ClientState(uint64_t seed, uint32_t c, uint64_t keys)
      : rng(seed * 1000003 + c), zipf(keys, 0.99, seed) {}
};

struct ClientOut {
  Samples get, put;        // client-observed, send to reply
  Samples svc_get, svc_put;  // direct KvService calls (traced run)
  std::vector<std::pair<int64_t, uint64_t>> plain_puts;  // (send, tag)
  uint64_t ops = 0, attempted = 0, failed = 0, conn_failures = 0;
  double cpu_ns = 0;
};

// Watches committed_epoch() for the durability latency of plain PUTs; in
// the traced window it also requests a checkpoint every kCkptProbeNs and
// times it until committed_epoch() covers the tag (core.commit_us_p50).
struct ProbeOut {
  Samples ckpt;  // request_checkpoint() until committed_epoch() covers it
  std::vector<std::pair<uint64_t, int64_t>> commits;  // (epoch, first seen)
  double cpu_ns = 0;
};

struct WindowResult {
  ClientOut all;
  ProbeOut probe;
  double seconds = 0;
  double cpu_us_per_op = 0;
  Samples durable;  // PUT send until committed_epoch() covers its tag
  LayerCounters before, after;
  double rss_peak_mb = 0;
};

class KvdRun {
 public:
  KvdRun(const Args& a, Stack& st)
      : a_(a), st_(st), oracle_(a.keys, a.threads) {}

  bool connect() {
    for (uint32_t c = 0; c < a_.threads; ++c) {
      clients_.push_back(std::make_unique<ClientState>(a_.seed, c, a_.keys));
      if (!clients_.back()->client.connect("127.0.0.1",
                                           st_.server->port())) {
        return false;
      }
    }
    return true;
  }

  // `measured` records samples and runs the probe; the warm-up does neither.
  WindowResult window(double seconds, bool measured);

 private:
  void client_loop(uint32_t c, bool record, ClientOut* out);
  void probe_loop(ProbeOut* out);

  const Args& a_;
  Stack& st_;
  Oracle oracle_;
  std::vector<std::unique_ptr<ClientState>> clients_;
  std::atomic<bool> stop_{false};
};

void KvdRun::client_loop(uint32_t c, bool record, ClientOut* out) {
  ClientState& cs = *clients_[c];
  KvService& svc = *st_.svc;
  const bool tracing = Tracer::armed();
  const double cpu0 = thread_cpu_ns();
  Tracer::Scope window("kvd.client_window", Layer::kBench);
  while (!stop_.load(std::memory_order_relaxed)) {
    const uint64_t key = cs.zipf.next(cs.rng);
    const bool is_get = cs.rng.next_below(1000) < kGetPermille;
    const bool sample_svc =
        tracing && ++cs.op_index % kSvcSampleEvery == 0;
    bool ok = false;
    ++out->attempted;
    if (is_get) {
      KvVal v;
      crpm::net::Status st = crpm::net::kOk;
      const int64_t t0 = now_ns();
      {
        Tracer::Scope s("net.client.get", Layer::kNet);
        ok = cs.client.get(key, &v, &st);
      }
      const int64_t t1 = now_ns();
      if (ok) {
        if (record) out->get.add(t1 - t0);
        if (!oracle_.check_get(c, key, st == crpm::net::kOk, v)) {
          ++out->failed;
        }
      }
      if (sample_svc) {
        ++out->attempted;
        KvVal v2;
        const int64_t s0 = now_ns();
        bool found;
        {
          Tracer::Scope s("net.svc.get", Layer::kNet);
          found = svc.get(key, &v2);
        }
        out->svc_get.add(now_ns() - s0);
        if (!oracle_.check_get(c, key, found, v2)) ++out->failed;
      }
    } else {
      const uint64_t k = oracle_.own(key, c);
      const uint64_t stamp = ++cs.stamp;
      uint64_t tag = 0;
      const int64_t t0 = now_ns();
      {
        Tracer::Scope s("net.client.put", Layer::kNet);
        ok = cs.client.put(k, crpm::net::make_value(k, stamp), false, &tag);
      }
      const int64_t t1 = now_ns();
      if (ok) {
        oracle_.note_ack(k, stamp);
        if (record) {
          out->put.add(t1 - t0);
          out->plain_puts.emplace_back(t0, tag);
        }
      }
      if (sample_svc) {
        ++out->attempted;
        const uint64_t s2 = ++cs.stamp;
        const int64_t s0 = now_ns();
        {
          Tracer::Scope s("net.svc.put", Layer::kNet);
          svc.put(k, crpm::net::make_value(k, s2));
        }
        out->svc_put.add(now_ns() - s0);
        oracle_.note_ack(k, s2);
      }
    }
    if (!ok) {
      ++out->failed;
      ++out->conn_failures;
      cs.client.close();
      if (!cs.client.connect("127.0.0.1", st_.server->port(), 1000)) break;
      continue;
    }
    ++out->ops;
  }
  out->cpu_ns = thread_cpu_ns() - cpu0;
}

void KvdRun::probe_loop(ProbeOut* out) {
  KvService& svc = *st_.svc;
  const bool requests = Tracer::armed();
  const double cpu0 = thread_cpu_ns();
  uint64_t last = svc.committed_epoch();
  int64_t next_req = now_ns() + kCkptProbeNs;
  uint64_t pending = 0;
  int64_t req_t = 0;
  while (!stop_.load(std::memory_order_relaxed)) {
    const uint64_t e = svc.committed_epoch();
    const int64_t t = now_ns();
    if (e != last) {
      out->commits.emplace_back(e, t);
      last = e;
    }
    if (pending != 0 && e >= pending) {
      out->ckpt.add(t - req_t);
      Tracer::record("core.request_to_commit", Layer::kCore, req_t, t);
      pending = 0;
    }
    if (requests && pending == 0 && t >= next_req) {
      req_t = now_ns();
      uint64_t tag;
      {
        Tracer::Scope s("core.request_checkpoint", Layer::kCore);
        tag = svc.request_checkpoint();
      }
      // A tag already covered means nothing was dirty: no checkpoint ran.
      if (tag > svc.committed_epoch()) pending = tag;
      next_req = req_t + kCkptProbeNs;
    }
    std::this_thread::sleep_for(kProbePoll);
  }
  out->cpu_ns = thread_cpu_ns() - cpu0;
}

WindowResult KvdRun::window(double seconds, bool measured) {
  WindowResult w;
  crpm::Container& ctr = *st_.svc->store().container();
  auto* archive = st_.svc->store().archive_writer();
  std::vector<ClientOut> outs(a_.threads);
  for (auto& o : outs) {
    // Room for the window's samples up front: growing a vector mid-window
    // would show up in the RSS figure.
    o.get.reserve(size_t(seconds * 4e5));
    o.put.reserve(size_t(seconds * 2e5));
  }
  stop_.store(false);
  RssPeak rss;
  rss.sample();
  w.before = LayerCounters::read(ctr, archive);
  const double main_cpu0 = thread_cpu_ns();
  const double cpu0 = process_cpu_ns();
  const int64_t t0 = now_ns();
  std::vector<std::thread> ts;
  for (uint32_t c = 0; c < a_.threads; ++c) {
    ts.emplace_back([this, c, measured, &outs] {
      client_loop(c, measured, &outs[c]);
    });
  }
  std::thread probe_thread;
  if (measured) {
    probe_thread = std::thread([this, &w] { probe_loop(&w.probe); });
  }
  const int64_t end = t0 + int64_t(seconds * 1e9);
  while (now_ns() < end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    rss.sample();
  }
  stop_.store(true);
  for (auto& t : ts) t.join();
  if (probe_thread.joinable()) probe_thread.join();
  w.seconds = double(now_ns() - t0) / 1e9;
  double bench_cpu = thread_cpu_ns() - main_cpu0 + w.probe.cpu_ns;
  const double cpu1 = process_cpu_ns();
  w.after = LayerCounters::read(ctr, archive);
  w.rss_peak_mb = rss.peak_mb();

  for (auto& o : outs) {
    w.all.get.merge(o.get);
    w.all.put.merge(o.put);
    w.all.svc_get.merge(o.svc_get);
    w.all.svc_put.merge(o.svc_put);
    w.all.plain_puts.insert(w.all.plain_puts.end(), o.plain_puts.begin(),
                            o.plain_puts.end());
    w.all.ops += o.ops;
    w.all.attempted += o.attempted;
    w.all.failed += o.failed;
    w.all.conn_failures += o.conn_failures;
    bench_cpu += o.cpu_ns;
  }
  if (w.all.ops > 0) {
    w.cpu_us_per_op = (cpu1 - cpu0 - bench_cpu) / double(w.all.ops) / 1e3;
  }
  // A plain PUT is durable once the probe saw committed_epoch() >= tag.
  auto& cm = w.probe.commits;
  for (const auto& [sent, tag] : w.all.plain_puts) {
    auto it = std::lower_bound(
        cm.begin(), cm.end(), tag,
        [](const std::pair<uint64_t, int64_t>& x, uint64_t t) {
          return x.first < t;
        });
    if (it != cm.end()) w.durable.add(it->second - sent);
  }
  return w;
}

}  // namespace

KvService::Config kvd_config(const std::string& dir, uint64_t keys) {
  KvService::Config sc;
  sc.dir = dir;
  // serve's default 256 MiB at 1M keys, scaled down for smaller key sets.
  const uint64_t mib = 1ull << 20;
  const uint64_t want = (256 * mib) / 1000000 * keys + mib;
  sc.capacity_bytes = std::max<uint64_t>(32 * mib, want / mib * mib);
  sc.buckets = 1 << 16;
  sc.interval_ms = 8;  // serve's default cadence
  sc.archive = true;
  sc.archive_tier = true;
  return sc;
}

bool run_kvd(const Args& a, Report* r) {
  const std::string dir = a.work_dir + "/kvd";
  std::vector<double> setup_s(kSetups), ttfq(kRestarts), ready(kRestarts);
  Stack st;
  for (int i = 0; i < kSetups; ++i) {
    if (!setup_once(a, dir, &st, &setup_s[i])) return false;
    std::printf("setup %d: %.3fs\n", i, setup_s[i]);
  }
  for (int i = 0; i < kRestarts; ++i) {
    if (!restart(a, dir, &st, &ttfq[i], &ready[i])) return false;
  }
  std::printf("restarts: ttfq median %.2fms over %d\n", median(ttfq),
              kRestarts);

  KvdRun run(a, st);
  if (!run.connect()) {
    std::fprintf(stderr, "perfbench: cannot connect to the server\n");
    return false;
  }
  run.window(kWarmupSeconds, false);
  // Medians over one-second sub-windows: a burst of interference from
  // outside the process moves one sub-window, not the run's figure.
  const double untraced_s = a.trace ? a.seconds / 2 : a.seconds;
  const int subs = std::max(1, int(untraced_s / kSubWindowSeconds + 0.5));
  std::vector<double> ops_s, get50, get90, put50, cpu, media, ckpt;
  Samples durable_lat;
  double rss_peak = 0;
  for (int i = 0; i < subs; ++i) {
    WindowResult w = run.window(untraced_s / subs, true);
    ops_s.push_back(double(w.all.ops) / w.seconds);
    get50.push_back(w.all.get.pct_us(0.5));
    get90.push_back(w.all.get.pct_us(0.9));
    put50.push_back(w.all.put.pct_us(0.5));
    cpu.push_back(w.cpu_us_per_op);
    media.push_back(double((w.after.nvm - w.before.nvm).media_write_bytes) /
                    double(std::max<uint64_t>(1, w.all.ops)));
    ckpt.push_back(checkpoint_us(w.before, w.after));
    durable_lat.merge(w.durable);
    rss_peak = std::max(rss_peak, w.rss_peak_mb);
    r->attempted += w.all.attempted;
    r->failed += w.all.failed;
    std::printf("  sub-window %d: %.0f ops/s, ckpt %.1fus, GET %s, PUT %s\n",
                i, ops_s.back(), ckpt.back(), w.all.get.summary().c_str(),
                w.all.put.summary().c_str());
  }
  const double ops_per_s = median(ops_s);
  std::printf("durable %s\n", durable_lat.summary().c_str());

  r->add_e2e("setup_s", median(setup_s), "s");
  r->add_e2e("ops_per_s", ops_per_s, "1/s");
  r->add_e2e("get_p50_us", median(get50), "us");
  r->add_e2e("get_p90_us", median(get90), "us");
  r->add_e2e("put_p50_us", median(put50), "us");
  r->add_e2e("durable_put_p50_us", durable_lat.pct_us(0.5), "us");
  r->add_e2e("durable_put_p90_us", durable_lat.pct_us(0.9), "us");
  r->add_e2e("cpu_us_per_op", median(cpu), "us");
  r->add_e2e("ckpt_p50_us", median(ckpt), "us");
  r->add_e2e("media_bytes_per_op", median(media), "B");
  r->add_e2e("ttfq_ms", median(ttfq), "ms");
  r->add_e2e("ready_ms", median(ready), "ms");
  r->add_e2e("rss_mb", rss_peak, "MB");

  if (a.trace) {
    Tracer::arm();
    WindowResult tw = run.window(a.seconds, true);
    const double traced_ops_per_s = double(tw.all.ops) / tw.seconds;
    r->attempted += tw.all.attempted;
    r->failed += tw.all.failed;
    WindowFacts f;
    f.ops = double(tw.all.ops);
    // Client PUTs and direct KvService::put calls; the service's own
    // checkpoints make both durable.
    f.puts = double(tw.all.put.size() + tw.all.svc_put.size());
    f.svc_get_ns_p50 = tw.all.svc_get.pct_us(0.5) * 1e3;
    f.svc_put_ns_p50 = tw.all.svc_put.pct_us(0.5) * 1e3;
    f.client_get_us_p50 = tw.all.get.pct_us(0.5);
    f.conn_failures = double(tw.all.conn_failures);
    f.commit_us_p50 = tw.probe.ckpt.pct_us(0.5);
    f.trace_overhead_pct = (ops_per_s / traced_ops_per_s - 1) * 100;
    std::printf("traced window: %.0f ops/s (untraced %.0f): overhead "
                "%.1f%%\n",
                traced_ops_per_s, ops_per_s, f.trace_overhead_pct);
    if (!report_layers(a, tw.before, tw.after, f, r)) return false;
  }
  st.reset();
  std::filesystem::remove_all(dir);
  return true;
}

}  // namespace perfbench
