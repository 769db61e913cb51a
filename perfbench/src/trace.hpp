// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded only from the benchmark's own files, around the calls
// it makes into each library layer. Every span carries a name, start, end,
// its parent span and the block (or key request) it belongs to. Each
// thread appends to its own buffer, so recording never takes a shared lock
// after the thread's first span; buffers are merged once the run's threads
// have been joined.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds (the one clock every benchmark time comes from).
std::int64_t now_ns() noexcept;

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t block = 0;   ///< block or key-request id
  std::uint32_t thread = 0;  ///< logical thread lane
  const char* name = "";     ///< static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Duration measured by the library (StageTimings) and laid out in
  /// stage order inside its parent, so its start is inferred.
  bool synthetic = false;

  std::int64_t duration_ns() const noexcept { return end_ns - start_ns; }
};

/// Process-wide recorder. Disabled (every call a no-op) unless enabled.
class Tracer {
 public:
  void set_enabled(bool on) noexcept { enabled_ = on; }
  bool enabled() const noexcept { return enabled_; }

  std::uint64_t next_id() noexcept;
  /// Append a finished span to the calling thread's buffer.
  void record(const Span& span);
  /// Every span recorded so far, ordered by start. Call only after the
  /// recording threads have been joined.
  std::vector<Span> take();

 private:
  bool enabled_ = false;
};

Tracer& tracer();

/// Block id and logical lane stamped on spans opened by this thread.
void set_thread_block(std::uint64_t block) noexcept;
void set_thread_lane(std::uint32_t lane) noexcept;
std::uint64_t thread_block() noexcept;
std::uint32_t thread_lane() noexcept;

/// RAII span. Its parent is the innermost span open on this thread, or an
/// explicit id for work handed to another thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ScopedSpan(const char* name, std::uint64_t parent);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const noexcept { return span_.id; }
  std::int64_t start_ns() const noexcept { return span_.start_ns; }

 private:
  void open(const char* name, std::uint64_t parent);
  Span span_;
  bool active_ = false;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children on the same thread. Children running on
/// another thread overlap their parent in parallel and are not subtracted.
std::unordered_map<std::uint64_t, std::int64_t> self_times(
    const std::vector<Span>& spans);

/// Share of a span's duration that none of its same-thread children
/// covers: its self time over its duration.
double uncovered_share(const Span& span,
                       const std::unordered_map<std::uint64_t, std::int64_t>&
                           self);

/// Chrome trace-event JSON ("X" complete events), at most `max_events`.
std::string chrome_trace_json(const std::vector<Span>& spans,
                              std::size_t max_events);

}  // namespace perfbench
