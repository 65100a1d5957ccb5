#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <utility>

namespace perfbench {
namespace {

struct ThreadBuffer {
  std::vector<Span> spans;
  // Open spans on this thread: (id, index into spans), innermost last.
  std::vector<std::pair<uint64_t, size_t>> open;
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::map<std::string, double> counters;
};

Registry& Global() {
  static Registry* r = new Registry();
  return *r;
}

std::atomic<uint64_t> next_id{1};

const std::chrono::steady_clock::time_point& Epoch() {
  static const std::chrono::steady_clock::time_point t =
      std::chrono::steady_clock::now();
  return t;
}

ThreadBuffer& Local() {
  thread_local ThreadBuffer* buffer = [] {
    auto owned = std::make_unique<ThreadBuffer>();
    ThreadBuffer* raw = owned.get();
    Registry& r = Global();
    std::lock_guard<std::mutex> lock(r.mu);
    r.buffers.push_back(std::move(owned));
    return raw;
  }();
  return *buffer;
}

uint64_t CurrentParent(const ThreadBuffer& b) {
  return b.open.empty() ? 0 : b.open.back().first;
}

}  // namespace

bool Tracer::enabled_ = false;

void Tracer::Enable() {
  Epoch();
  enabled_ = true;
}

int64_t Tracer::Now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Epoch())
      .count();
}

uint64_t Tracer::Open(const char* name, uint64_t request_id) {
  if (!enabled_ || name == nullptr) return 0;
  ThreadBuffer& b = Local();
  Span s;
  s.name = name;
  s.id = next_id.fetch_add(1, std::memory_order_relaxed);
  s.parent = CurrentParent(b);
  s.request_id = request_id;
  s.start_ns = Now();
  b.open.emplace_back(s.id, b.spans.size());
  b.spans.push_back(s);
  return s.id;
}

void Tracer::Close(uint64_t id) {
  if (!enabled_) return;
  ThreadBuffer& b = Local();
  // Spans close innermost first; a span left open by an early return is
  // closed here together with the one that encloses it.
  while (!b.open.empty()) {
    const auto [open_id, index] = b.open.back();
    b.open.pop_back();
    b.spans[index].end_ns = Now();
    if (open_id == id) break;
  }
}

void Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns) {
  if (!enabled_) return;
  ThreadBuffer& b = Local();
  Span s;
  s.name = name;
  s.id = next_id.fetch_add(1, std::memory_order_relaxed);
  s.parent = CurrentParent(b);
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  b.spans.push_back(s);
}

void Tracer::Count(const std::string& name, double delta) {
  if (!enabled_) return;
  Registry& r = Global();
  std::lock_guard<std::mutex> lock(r.mu);
  r.counters[name] += delta;
}

std::vector<Span> Tracer::Spans() {
  Registry& r = Global();
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& b : r.buffers) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

std::map<std::string, double> Tracer::Counters() {
  Registry& r = Global();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.counters;
}

bool Tracer::WriteJson(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [");
  bool first = true;
  for (const Span& s : Spans()) {
    std::fprintf(f,
                 "%s\n  {\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"request_id\": %llu}",
                 first ? "" : ",", s.name,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.request_id));
    first = false;
  }
  std::fprintf(f, "\n],\n\"counters\": {");
  first = true;
  for (const auto& [name, value] : Counters()) {
    std::fprintf(f, "%s\n  \"%s\": %.17g", first ? "" : ",", name.c_str(),
                 value);
    first = false;
  }
  std::fprintf(f, "\n}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
