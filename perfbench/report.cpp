#include "report.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>

namespace perfbench {

namespace {

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("  %-34s %16.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

void Report::print_table() const {
  std::printf("end-to-end:\n");
  print_metrics(e2e);
  if (!layer.empty()) {
    std::printf("per-layer (traced window):\n");
    print_metrics(layer);
  }
  std::printf("attempted=%llu failed=%llu correct=%s\n",
              (unsigned long long)attempted, (unsigned long long)failed,
              correct ? "true" : "false");
}

void Report::print_json(bool trace) const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false", (unsigned long long)attempted,
              (unsigned long long)failed);
  const char* sep = "";
  for (const Metric& m : trace ? layer : e2e) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double Samples::pct_us(double p) const {
  if (v_.empty()) return 0;
  size_t idx = static_cast<size_t>(p * double(v_.size() - 1) + 0.5);
  std::nth_element(v_.begin(), v_.begin() + long(idx), v_.end());
  return double(v_[idx]) / 1e3;
}

std::string Samples::summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "p50=%.1fus p90=%.1fus p99=%.1fus (n=%zu)",
                pct_us(0.5), pct_us(0.9), pct_us(0.99), v_.size());
  return buf;
}

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return double(ts.tv_sec) * 1e9 + double(ts.tv_nsec);
}
}  // namespace

double process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

double rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return double(resident) * double(sysconf(_SC_PAGESIZE)) / (1 << 20);
}

void RssPeak::sample() { peak_ = std::max(peak_, rss_mb()); }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

void fresh_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

}  // namespace perfbench
