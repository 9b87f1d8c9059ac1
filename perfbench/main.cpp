// crpm_perfbench: the repo benchmark program (see perfbench/README.md).
//
//   crpm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --work-dir <dir> [--trace-out <file>] [--keys <n>]
//   crpm_perfbench --selftest --work-dir <dir>
//
// Prints a human-readable log and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (--trace 0) or the per-layer metrics of a separate
// traced window (--trace 1). Exit status 0 means a result line was printed;
// any other status means a harness error and no result.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "report.h"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: crpm_perfbench --workload <kvd_get_heavy|"
               "lib_balanced|kvd_recover> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir> [--trace-out <file>] "
               "[--keys <n>]\n"
               "       crpm_perfbench --selftest --work-dir <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  bool self = false;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--selftest") {
      self = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (k == "--keys") {
      a.keys = std::strtoull(v, nullptr, 10);
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else if (k == "--trace-out") {
      a.trace_path = v;
    } else {
      return usage();
    }
  }
  if (a.work_dir.empty() || a.keys < 64 || a.seconds <= 0) return usage();
  a.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::filesystem::create_directories(a.work_dir);
  if (self) return selftest(a) ? 0 : 1;
  if (a.trace_path.empty()) a.trace_path = a.work_dir + "/spans.json";

  std::printf("== perfbench %s seed=%llu seconds=%.1f trace=%d keys=%llu "
              "threads=%u ==\n",
              a.workload.c_str(), (unsigned long long)a.seed, a.seconds,
              int(a.trace), (unsigned long long)a.keys, a.threads);
  Report r;
  bool ok;
  if (a.workload == "kvd_get_heavy") {
    ok = run_kvd(a, &r);
  } else if (a.workload == "lib_balanced") {
    ok = run_lib_balanced(a, &r);
  } else if (a.workload == "kvd_recover") {
    ok = run_recover(a, &r);
  } else {
    return usage();
  }
  if (!ok) {
    std::fprintf(stderr, "perfbench: %s failed\n", a.workload.c_str());
    return 1;
  }
  r.add_e2e("ok_ratio",
            double(r.attempted - r.failed) / double(std::max<uint64_t>(1, r.attempted)),
            "ratio");
  r.correct = r.failed == 0;
  r.print_table();
  r.print_json(a.trace);
  return 0;
}
