#include "trace.h"

#include <atomic>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

struct Buffer {
  uint32_t thread = 0;
  uint64_t seq = 0;
  std::vector<Span> spans;
};

std::atomic<bool> g_armed{false};
std::atomic<int64_t> g_origin{0};
std::mutex g_mu;
std::vector<std::unique_ptr<Buffer>> g_buffers;  // guarded by g_mu

thread_local Buffer* tl_buffer = nullptr;
thread_local uint64_t tl_current = 0;

int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Span time: ns since arm().
int64_t span_ns() {
  return steady_ns() - g_origin.load(std::memory_order_relaxed);
}

Buffer& thread_buffer() {
  if (tl_buffer == nullptr) {
    std::lock_guard<std::mutex> lk(g_mu);
    g_buffers.push_back(std::make_unique<Buffer>());
    tl_buffer = g_buffers.back().get();
    tl_buffer->thread = static_cast<uint32_t>(g_buffers.size());
    tl_buffer->spans.reserve(1 << 16);
  }
  return *tl_buffer;
}

// A span on this thread's buffer, parented to the span open here.
Span new_span(const char* name, Layer layer) {
  Buffer& b = thread_buffer();
  Span s;
  s.id = (uint64_t{b.thread} << 40) | ++b.seq;
  s.parent = tl_current;
  s.name = name;
  s.layer = layer;
  s.thread = b.thread;
  return s;
}

}  // namespace

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kBench: return "bench";
    case Layer::kNet: return "net";
    case Layer::kCore: return "core";
    case Layer::kContainers: return "containers";
    case Layer::kSnapshot: return "snapshot";
  }
  return "?";
}

void Tracer::arm() {
  {
    std::lock_guard<std::mutex> lk(g_mu);
    for (auto& b : g_buffers) b->spans.clear();
  }
  g_origin.store(steady_ns(), std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_release);
}

void Tracer::disarm() { g_armed.store(false, std::memory_order_release); }

bool Tracer::armed() { return g_armed.load(std::memory_order_acquire); }

void Tracer::record(const char* name, Layer layer, int64_t start_steady_ns,
                    int64_t end_steady_ns) {
  if (!armed()) return;
  const int64_t origin = g_origin.load(std::memory_order_relaxed);
  Span s = new_span(name, layer);
  s.start_ns = start_steady_ns - origin;
  s.end_ns = end_steady_ns - origin;
  tl_buffer->spans.push_back(s);
}

std::vector<Span> Tracer::collect() {
  std::lock_guard<std::mutex> lk(g_mu);
  std::vector<Span> out;
  for (auto& b : g_buffers) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

std::map<std::string, double> Tracer::self_ms(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, int64_t> child_ns;
  child_ns.reserve(spans.size());
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (int l = 0; l < kLayerCount; ++l) {
    out[layer_name(static_cast<Layer>(l))] = 0;
  }
  for (const Span& s : spans) {
    int64_t self = s.end_ns - s.start_ns;
    auto it = child_ns.find(s.id);
    if (it != child_ns.end()) self -= it->second;
    out[layer_name(s.layer)] += double(self) / 1e6;
  }
  return out;
}

bool Tracer::write(const std::string& path, const std::vector<Span>& spans,
                   const std::map<std::string, double>& counters) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"counters\": {");
  const char* sep = "";
  for (const auto& [k, v] : counters) {
    std::fprintf(f, "%s\"%s\": %.17g", sep, k.c_str(), v);
    sep = ", ";
  }
  std::fprintf(f, "},\n\"span_fields\": [\"id\", \"parent\", \"name\", "
                  "\"layer\", \"thread\", \"start_ns\", \"end_ns\"],\n"
                  "\"spans\": [\n");
  sep = "";
  for (const Span& s : spans) {
    std::fprintf(f, "%s[%llu, %llu, \"%s\", \"%s\", %u, %lld, %lld]", sep,
                 (unsigned long long)s.id, (unsigned long long)s.parent,
                 s.name, layer_name(s.layer), s.thread,
                 (long long)s.start_ns, (long long)s.end_ns);
    sep = ",\n";
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

Tracer::Scope::Scope(const char* name, Layer layer) {
  if (!armed()) return;
  live_ = true;
  span_ = new_span(name, layer);
  saved_parent_ = tl_current;
  tl_current = span_.id;
  span_.start_ns = span_ns();
}

Tracer::Scope::~Scope() {
  if (!live_) return;
  span_.end_ns = span_ns();
  tl_current = saved_parent_;
  if (armed()) tl_buffer->spans.push_back(span_);
}

}  // namespace perfbench
