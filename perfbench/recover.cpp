// kvd_recover: archive recovery of a crpm_kvd directory. Set-up builds the
// directory once (every key preloaded, then kUpdateEpochs durable update
// epochs, tiered archive on) and keeps the newest stamp of every key as the
// golden map. Each repetition copies that pristine directory without its
// container file -- the container is lost, the archive survives -- opens
// KvService with lazy_restore and `threads` restore workers, and times the
// first correct GET (ttfq_ms) and wait_ready() (ready_ms). It then reads
// every key back against the golden map and makes a few rounds of durable
// writes on the recovered service.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <unordered_map>

#include "apps/state_store.h"
#include "kvd_common.h"
#include "layers.h"
#include "snapshot/lazy_restore.h"
#include "snapshot/restore.h"
#include "util/rng.h"
#include "util/zipfian.h"

namespace perfbench {

namespace fs = std::filesystem;
using crpm::ScrambledZipfianGenerator;
using crpm::StateStore;
using crpm::Xoshiro256;
using crpm::net::KvService;
using crpm::net::KvVal;

namespace {

constexpr int kUpdateEpochs = 20;
constexpr int kWriteRounds = 50;       // durable write rounds per repetition
constexpr int kPutsPerRound = 1000;
constexpr uint64_t kSampleEvery = 16;  // verify GETs timed (and spanned)

KvService::Config recover_config(const Args& a, const std::string& dir) {
  KvService::Config cfg = kvd_config(dir, a.keys);
  cfg.lazy_restore = true;
  cfg.restore_workers = a.threads;
  return cfg;
}

struct Golden {
  std::vector<uint64_t> stamp;  // newest durable stamp per key
  uint64_t max_stamp = 0;
};

// Builds the pristine directory; returns its wall time in seconds.
double build_pristine(const Args& a, const std::string& dir, Golden* g) {
  fresh_dir(dir);
  const int64_t t0 = now_ns();
  KvService::Config cfg = recover_config(a, dir);
  cfg.interval_ms = 0;  // epochs only on request: exactly 1 + kUpdateEpochs
  KvService svc(cfg);
  g->stamp.assign(a.keys, 0);
  for (uint64_t k = 0; k < a.keys; ++k) {
    svc.put(k, crpm::net::make_value(k, 0));
  }
  svc.request_checkpoint();
  svc.flush();
  Xoshiro256 rng(a.seed * 31 + 7);
  ScrambledZipfianGenerator zipf(a.keys, 0.99, a.seed);
  const uint64_t per_epoch = std::max<uint64_t>(1, a.keys / 50);
  uint64_t stamp = 0;
  for (int e = 0; e < kUpdateEpochs; ++e) {
    for (uint64_t i = 0; i < per_epoch; ++i) {
      const uint64_t k = zipf.next(rng);
      svc.put(k, crpm::net::make_value(k, ++stamp));
      g->stamp[k] = stamp;
    }
    svc.request_checkpoint();
    svc.flush();
  }
  g->max_stamp = stamp;
  if (auto* aw = svc.store().archive_writer()) aw->drain();
  return double(now_ns() - t0) / 1e9;
}

// Copies the pristine directory into `dir`, leaving out the container.
void copy_without_container(const std::string& pristine,
                            const std::string& dir) {
  fresh_dir(dir);
  const fs::path ctr = fs::path(StateStore::container_path(pristine, 0));
  for (const auto& e : fs::directory_iterator(pristine)) {
    if (e.path().filename() == ctr.filename()) continue;
    fs::copy_file(e.path(), fs::path(dir) / e.path().filename());
  }
}

struct Rep {
  double ttfq_ms = 0, ready_ms = 0, ops_per_s = 0, cpu_us_per_op = 0;
  double read_ops_per_s = 0;  // the timed read pass alone (log only)
  double media_bytes_per_op = 0, rss_peak_mb = 0;
  Samples get, put, durable;
  // Each write round's durability percentiles: a few slow commits in a
  // repetition moved its pooled p90 by up to 4x.
  std::vector<double> round_dur50, round_dur90;
  // checkpoint_us() between consecutive commits seen by the write rounds:
  // single captures took 0.3 to 20 ms, so a mean over a repetition swung
  // with its slowest few.
  std::vector<double> epoch_ckpt_us;
  uint64_t ops = 0, attempted = 0, failed = 0;
  LayerCounters before, after;
  crpm::CrpmOptions opt;  // the recovered container's options
};

bool check_stamp(bool found, const KvVal& v, uint64_t key, uint64_t want) {
  uint64_t stamp = 0;
  return found && crpm::net::check_value(v, key, &stamp) && stamp == want;
}

bool run_rep(const Args& a, const std::string& pristine,
             const std::string& dir, const Golden& g, uint64_t rep_index,
             Rep* r) {
  copy_without_container(pristine, dir);
  RssPeak rss;
  rss.sample();
  Xoshiro256 rng(a.seed * 131 + rep_index);
  const double cpu0 = process_cpu_ns();
  Tracer::Scope rep_span("recover.rep", Layer::kBench);

  const int64_t t0 = now_ns();
  std::unique_ptr<KvService> svc;
  {
    Tracer::Scope s("net.svc.open", Layer::kNet);
    svc = std::make_unique<KvService>(recover_config(a, dir));
  }
  const uint64_t probe = rng.next_below(a.keys);
  KvVal v;
  bool found;
  {
    Tracer::Scope s("net.svc.get", Layer::kNet);
    found = svc->get(probe, &v);
  }
  r->ttfq_ms = double(now_ns() - t0) / 1e6;
  {
    Tracer::Scope s("net.svc.wait_ready", Layer::kNet);
    svc->wait_ready();
  }
  r->ready_ms = double(now_ns() - t0) / 1e6;
  ++r->attempted;
  if (!check_stamp(found, v, probe, g.stamp[probe])) ++r->failed;
  if (svc->last_recovery() != crpm::RecoverySource::kArchive) {
    std::fprintf(stderr, "perfbench: recovery did not use the archive\n");
    return false;
  }
  rss.sample();

  crpm::Container& ctr = *svc->store().container();
  r->opt = ctr.options();
  r->before = LayerCounters::read(ctr, svc->store().archive_writer());
  // Every key against the golden map, then a second, timed pass over the
  // same keys: the first pass also pays the page faults of the freshly
  // built container mapping, whose cost the host decides.
  for (uint64_t k = 0; k < a.keys; ++k) {
    ++r->attempted;
    if (!check_stamp(svc->get(k, &v), v, k, g.stamp[k])) ++r->failed;
  }
  const int64_t v0 = now_ns();
  for (uint64_t k = 0; k < a.keys; ++k) {
    ++r->attempted;
    if (k % kSampleEvery == 0) {
      const int64_t ts = now_ns();
      {
        Tracer::Scope s("net.svc.get", Layer::kNet);
        found = svc->get(k, &v);
      }
      r->get.add(now_ns() - ts);
    } else {
      found = svc->get(k, &v);
    }
    if (!check_stamp(found, v, k, g.stamp[k])) ++r->failed;
  }
  uint64_t ops = 2 * a.keys;
  r->read_ops_per_s = double(a.keys) / (double(now_ns() - v0) / 1e9);
  rss.sample();

  ScrambledZipfianGenerator zipf(a.keys, 0.99, a.seed + rep_index);
  uint64_t stamp = g.max_stamp;
  std::unordered_map<uint64_t, uint64_t> written;
  std::vector<std::pair<int64_t, uint64_t>> issued;   // (send, tag)
  std::vector<std::pair<uint64_t, int64_t>> commits;  // (epoch, first seen)
  uint64_t seen = svc->committed_epoch();
  LayerCounters last = r->before;
  auto watch = [&] {
    const uint64_t e = svc->committed_epoch();
    if (e != seen) {
      commits.emplace_back(e, now_ns());
      seen = e;
      const LayerCounters cur =
          LayerCounters::read(ctr, svc->store().archive_writer());
      const double us = checkpoint_us(last, cur);
      if (us > 0) r->epoch_ckpt_us.push_back(us);
      last = cur;
    }
  };
  for (int round = 0; round < kWriteRounds; ++round) {
    written.clear();
    issued.clear();
    commits.clear();
    uint64_t tag = 0;
    for (int i = 0; i < kPutsPerRound; ++i) {
      const uint64_t k = zipf.next(rng);
      const int64_t ts = now_ns();
      {
        Tracer::Scope s("net.svc.put", Layer::kNet);
        tag = svc->put(k, crpm::net::make_value(k, ++stamp));
      }
      r->put.add(now_ns() - ts);
      issued.emplace_back(ts, tag);
      written[k] = stamp;
      watch();
    }
    // The service's own interval checkpoints make the round durable.
    {
      Tracer::Scope s("core.wait_committed", Layer::kCore);
      while (seen < tag) {
        std::this_thread::yield();  // a timed sleep adds its slack
        watch();
      }
    }
    Samples lat;
    for (const auto& [sent, t] : issued) {
      auto it = std::lower_bound(
          commits.begin(), commits.end(), t,
          [](const std::pair<uint64_t, int64_t>& c, uint64_t x) {
            return c.first < x;
          });
      if (it != commits.end()) lat.add(it->second - sent);
    }
    r->round_dur50.push_back(lat.pct_us(0.5));
    r->round_dur90.push_back(lat.pct_us(0.9));
    r->durable.merge(lat);
    for (const auto& [k, want] : written) {
      ++r->attempted;
      if (!check_stamp(svc->get(k, &v), v, k, want)) ++r->failed;
    }
    ops += kPutsPerRound + written.size();
  }
  r->after = LayerCounters::read(ctr, svc->store().archive_writer());
  rss.sample();
  r->ops = ops;
  // From the open, restore included: the rate of the timed read pass alone
  // moved by +-30% between repetitions of one run.
  r->ops_per_s = double(ops) / (double(now_ns() - t0) / 1e9);
  r->cpu_us_per_op = (process_cpu_ns() - cpu0) / double(ops) / 1e3;
  r->media_bytes_per_op =
      double((r->after.nvm - r->before.nvm).media_write_bytes) / double(ops);
  r->rss_peak_mb = rss.peak_mb();
  svc.reset();
  fs::remove_all(dir);
  return true;
}

struct RepSet {
  std::vector<Rep> reps;
  uint64_t attempted = 0, failed = 0;

  double med(double Rep::*field) const {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(r.*field);
    return median(v);
  }
  // Median over the values of every repetition.
  double med_pooled(std::vector<double> Rep::*field) const {
    std::vector<double> v;
    for (const Rep& r : reps) {
      v.insert(v.end(), (r.*field).begin(), (r.*field).end());
    }
    return median(v);
  }
  Samples pooled(Samples Rep::*field) const {
    Samples s;
    for (const Rep& r : reps) s.merge(r.*field);
    return s;
  }
  // Median over repetitions of each repetition's percentile `p`: one slow
  // repetition moves one value, not the figure.
  double med_pct(Samples Rep::*field, double p) const {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back((r.*field).pct_us(p));
    return median(v);
  }
};

// Repetitions until `seconds` have passed (at least two).
bool run_reps(const Args& a, const std::string& pristine,
              const std::string& dir, const Golden& g, double seconds,
              uint64_t* rep_index, RepSet* out) {
  const int64_t end = now_ns() + int64_t(seconds * 1e9);
  while (out->reps.size() < 2 || now_ns() < end) {
    Rep r;
    if (!run_rep(a, pristine, dir, g, (*rep_index)++, &r)) return false;
    std::printf("rep %zu: ttfq %.1fms ready %.1fms, %.0f ops/s (read pass "
                "%.0f GET/s)\n",
                out->reps.size(), r.ttfq_ms, r.ready_ms, r.ops_per_s,
                r.read_ops_per_s);
    out->attempted += r.attempted;
    out->failed += r.failed;
    out->reps.push_back(std::move(r));
  }
  return true;
}

}  // namespace

bool run_recover(const Args& a, Report* r) {
  const std::string pristine = a.work_dir + "/recover-pristine";
  const std::string dir = a.work_dir + "/recover-rep";
  Golden g;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    setup_s.push_back(build_pristine(a, pristine, &g));
    std::printf("setup %d: %.3fs\n", i, setup_s.back());
  }
  const std::string archive = StateStore::archive_path(pristine, 0);
  std::printf("archive: %.1f MiB\n",
              double(fs::file_size(archive)) / (1 << 20));

  uint64_t rep_index = 0;
  RepSet u;
  if (!run_reps(a, pristine, dir, g, a.trace ? a.seconds / 2 : a.seconds,
                &rep_index, &u)) {
    return false;
  }
  const Samples get = u.pooled(&Rep::get);
  const Samples put = u.pooled(&Rep::put);
  const Samples durable = u.pooled(&Rep::durable);
  std::printf("verify GET %s\nPUT %s\ndurable %s\n", get.summary().c_str(),
              put.summary().c_str(), durable.summary().c_str());
  double rss_peak = 0;
  for (const Rep& rep : u.reps) rss_peak = std::max(rss_peak, rep.rss_peak_mb);

  r->attempted = u.attempted;
  r->failed = u.failed;
  const double ops_per_s = u.med(&Rep::ops_per_s);
  r->add_e2e("setup_s", median(setup_s), "s");
  r->add_e2e("ops_per_s", ops_per_s, "1/s");
  r->add_e2e("get_p50_us", u.med_pct(&Rep::get, 0.5), "us");
  r->add_e2e("get_p90_us", u.med_pct(&Rep::get, 0.9), "us");
  r->add_e2e("put_p50_us", u.med_pct(&Rep::put, 0.5), "us");
  r->add_e2e("durable_put_p50_us", u.med_pooled(&Rep::round_dur50), "us");
  r->add_e2e("durable_put_p90_us", u.med_pooled(&Rep::round_dur90), "us");
  r->add_e2e("cpu_us_per_op", u.med(&Rep::cpu_us_per_op), "us");
  r->add_e2e("ckpt_p50_us", u.med_pooled(&Rep::epoch_ckpt_us), "us");
  r->add_e2e("media_bytes_per_op", u.med(&Rep::media_bytes_per_op), "B");
  r->add_e2e("ttfq_ms", u.med(&Rep::ttfq_ms), "ms");
  r->add_e2e("ready_ms", u.med(&Rep::ready_ms), "ms");
  r->add_e2e("rss_mb", rss_peak, "MB");

  if (a.trace) {
    Tracer::arm();
    RepSet t;
    if (!run_reps(a, pristine, dir, g, a.seconds, &rep_index, &t)) {
      return false;
    }
    r->attempted += t.attempted;
    r->failed += t.failed;
    WindowFacts f;
    const Rep& last = t.reps.back();
    f.ops = double(last.ops);
    f.puts = double(last.put.size());
    f.svc_get_ns_p50 = t.pooled(&Rep::get).pct_us(0.5) * 1e3;
    f.svc_put_ns_p50 = t.pooled(&Rep::put).pct_us(0.5) * 1e3;
    f.trace_overhead_pct = (ops_per_s / t.med(&Rep::ops_per_s) - 1) * 100;

    // The snapshot restore paths, called directly on the same archive.
    copy_without_container(pristine, dir);
    const std::string copy = StateStore::archive_path(dir, 0);
    const crpm::CrpmOptions& opt = last.opt;
    int64_t ts = now_ns();
    std::unique_ptr<crpm::snapshot::LazyRestorer> lz;
    {
      Tracer::Scope s("snapshot.restore_lazy", Layer::kSnapshot);
      lz = crpm::snapshot::restore_lazy(copy, crpm::Container::kLatestEpoch,
                                        opt);
    }
    f.lazy_start_ms = double(now_ns() - ts) / 1e6;
    if (!lz->ok()) {
      std::fprintf(stderr, "perfbench: restore_lazy: %s\n",
                   lz->error().c_str());
      return false;
    }
    ts = now_ns();
    {
      Tracer::Scope s("snapshot.materialize_all", Layer::kSnapshot);
      lz->materialize_all(a.threads);
    }
    f.materialize_all_ms = double(now_ns() - ts) / 1e6;
    lz.reset();
    ts = now_ns();
    crpm::snapshot::RestoreResult rr;
    {
      Tracer::Scope s("snapshot.restore_file", Layer::kSnapshot);
      rr = crpm::snapshot::restore_file(copy, crpm::Container::kLatestEpoch,
                                        dir + "/restored.ctr", opt);
    }
    f.restore_file_ms = double(now_ns() - ts) / 1e6;
    if (!rr.container) {
      std::fprintf(stderr, "perfbench: restore_file: %s\n", rr.error.c_str());
      return false;
    }
    rr.container.reset();
    f.archive_mb = double(fs::file_size(copy)) / (1 << 20);
    fs::remove_all(dir);
    std::printf("snapshot: lazy start %.1fms, materialize_all %.1fms, "
                "restore_file %.1fms; traced overhead %.1f%%\n",
                f.lazy_start_ms, f.materialize_all_ms, f.restore_file_ms,
                f.trace_overhead_pct);
    if (!report_layers(a, last.before, last.after, f, r)) return false;
  }
  fs::remove_all(pristine);
  return true;
}

}  // namespace perfbench
