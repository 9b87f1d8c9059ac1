// In-memory span recorder for the traced benchmark run.
//
// A span is one call from the benchmark into a layer of the program: its
// name, the layer it enters, start and end (steady clock, ns since the
// tracer was armed) and the span that was open on the same thread when it
// began (its parent; 0 for a root). Spans go into per-thread buffers with
// no locking on the hot path and are written out once, after the measured
// window, together with the layer counter deltas.
//
// A layer's self time is the summed duration of its spans minus the part of
// each span that its child spans cover. Children always run on their
// parent's thread and nest inside it, so that part is the plain sum of the
// children's durations.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : uint8_t { kBench, kNet, kCore, kContainers, kSnapshot };
inline constexpr int kLayerCount = 5;
const char* layer_name(Layer l);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  const char* name = nullptr;  // string literal
  Layer layer = Layer::kBench;
  uint32_t thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  // Starts recording; spans opened before arm() or after disarm() are
  // dropped. Not reentrant: one armed window per process at a time.
  static void arm();
  static void disarm();
  static bool armed();

  // Records a span that does not follow one call's scope (e.g. a request
  // and the poll that saw it complete). Times are steady-clock ns, the
  // clock of perfbench::now_ns(); the parent is the span open on this
  // thread.
  static void record(const char* name, Layer layer, int64_t start_steady_ns,
                     int64_t end_steady_ns);

  // All spans recorded since arm(), across threads. Call after every
  // recording thread has joined.
  static std::vector<Span> collect();

  // Per-layer self time in ms over `spans`.
  static std::map<std::string, double> self_ms(const std::vector<Span>& spans);

  // Writes {"counters": ..., "span_fields": [...], "spans": [...]} to
  // `path`; the counters carry the per-layer self times.
  static bool write(const std::string& path, const std::vector<Span>& spans,
                    const std::map<std::string, double>& counters);

  // RAII span. Cheap no-op when the tracer is not armed.
  class Scope {
   public:
    Scope(const char* name, Layer layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Span span_;
    uint64_t saved_parent_ = 0;
    bool live_ = false;
  };
};

}  // namespace perfbench
