#ifndef FLOWCUBE_PERFBENCH_TRACE_H_
#define FLOWCUBE_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// One recorded interval. Spans nest per thread: `parent` is the id of the
// span that was open on the same thread when this one began (0 = none).
// Spans of one request carry its request id (0 = not request-scoped).
struct Span {
  const char* name = "";  // string literal or other static storage
  uint64_t id = 0;
  uint64_t parent = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t request_id = 0;
};

// In-memory span and counter recorder for the traced run. Disabled by
// default: then every call below is one branch and records nothing, which
// is what the untraced runs that produce the end-to-end metrics rely on.
// Enabled, each thread appends to its own buffer without locking; the
// buffers are merged when the run ends.
class Tracer {
 public:
  static void Enable();
  static bool enabled() { return enabled_; }

  // Nanoseconds on the steady clock since the tracer's epoch.
  static int64_t Now();

  // Opens a span on the calling thread and makes it the parent of spans
  // opened after it until Close. Returns its id; 0 when disabled or when
  // `name` is null, which records nothing.
  static uint64_t Open(const char* name, uint64_t request_id);
  static void Close(uint64_t id);

  // Records a finished span, parented like Open would parent it.
  static void Record(const char* name, int64_t start_ns, int64_t end_ns);

  // Adds to a named counter (no-op when disabled).
  static void Count(const std::string& name, double delta);

  // Every span recorded so far, from all threads, ordered by id.
  static std::vector<Span> Spans();
  static std::map<std::string, double> Counters();

  // Writes spans and counters as one JSON document.
  static bool WriteJson(const std::string& path);

 private:
  static bool enabled_;
};

// RAII span: opens on construction and closes on destruction (or End).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t request_id = 0)
      : id_(Tracer::Open(name, request_id)) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void End() {
    if (id_ != 0) Tracer::Close(id_);
    id_ = 0;
  }

 private:
  uint64_t id_;
};

}  // namespace perfbench

#endif  // FLOWCUBE_PERFBENCH_TRACE_H_
