// Shared plumbing of the benchmark program: command-line arguments, the
// result line, latency samples, CPU and RSS readings.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  uint64_t keys = 1000 * 1000;   // --keys: the smoke test shrinks this
  std::string work_dir;          // scratch space for containers/archives
  std::string trace_path;        // where the traced run writes its spans
  uint32_t threads = 4;          // load connections / restore workers
};

// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Everything one run reports. Workloads fill `e2e` from the untraced
// window and `layer` from the traced one; main() prints whichever set the
// run was asked for as the last line of stdout.
struct Report {
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  void add_e2e(const std::string& n, double v, const std::string& u) {
    e2e.push_back({n, v, u});
  }
  void add_layer(const std::string& n, double v, const std::string& u) {
    layer.push_back({n, v, u});
  }
  // Prints the metrics as a human-readable table on stdout.
  void print_table() const;
  // The final machine-readable line.
  void print_json(bool trace) const;
};

// Latency samples in nanoseconds.
class Samples {
 public:
  void add(int64_t ns) { v_.push_back(ns < 0 ? 0 : uint64_t(ns)); }
  void reserve(size_t n) { v_.reserve(n); }
  void merge(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  size_t size() const { return v_.size(); }
  // Nearest-rank percentile in microseconds (0 when empty).
  double pct_us(double p) const;
  // "p50=.. p90=.. p99=.. (n=..)" for the human log.
  std::string summary() const;

 private:
  mutable std::vector<uint64_t> v_;
};

int64_t now_ns();                 // steady clock
double process_cpu_ns();
double thread_cpu_ns();
double rss_mb();                  // current resident set

// Peak of rss_mb() over the calls to sample().
class RssPeak {
 public:
  void sample();
  double peak_mb() const { return peak_; }

 private:
  double peak_ = 0;
};

double median(std::vector<double> v);

// Removes and recreates `dir`.
void fresh_dir(const std::string& dir);

// Workload entry points; each returns false on a harness error (the run
// then prints no result line).
bool run_kvd(const Args& a, Report* r);
bool run_lib_balanced(const Args& a, Report* r);
bool run_recover(const Args& a, Report* r);

// Self-checks run by the smoke test: the oracle rejects planted values and
// lib_balanced's stack matches make_kv() counter for counter.
bool selftest(const Args& a);

}  // namespace perfbench
