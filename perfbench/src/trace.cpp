#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <mutex>

namespace perfbench {

namespace {

struct ThreadState {
  std::vector<Span>* buffer = nullptr;
  std::vector<std::uint64_t> open;  ///< ids of spans open on this thread
  std::uint64_t block = 0;
  std::uint32_t lane = 0;
};

thread_local ThreadState t_state;

std::mutex g_buffers_mutex;
std::deque<std::vector<Span>> g_buffers;  // pinned: threads keep pointers
std::atomic<std::uint64_t> g_next_id{1};

std::vector<Span>& thread_buffer() {
  if (t_state.buffer == nullptr) {
    std::scoped_lock lock(g_buffers_mutex);
    g_buffers.emplace_back();
    t_state.buffer = &g_buffers.back();
  }
  return *t_state.buffer;
}

}  // namespace

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t Tracer::next_id() noexcept {
  // relaxed: ids need only be unique, they order nothing.
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::record(const Span& span) { thread_buffer().push_back(span); }

std::vector<Span> Tracer::take() {
  std::vector<Span> all;
  {
    std::scoped_lock lock(g_buffers_mutex);
    for (auto& buffer : g_buffers) {
      all.insert(all.end(), buffer.begin(), buffer.end());
      buffer.clear();
    }
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

void set_thread_block(std::uint64_t block) noexcept { t_state.block = block; }
void set_thread_lane(std::uint32_t lane) noexcept { t_state.lane = lane; }
std::uint64_t thread_block() noexcept { return t_state.block; }
std::uint32_t thread_lane() noexcept { return t_state.lane; }

ScopedSpan::ScopedSpan(const char* name) {
  open(name, t_state.open.empty() ? 0 : t_state.open.back());
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t parent) {
  open(name, parent);
}

void ScopedSpan::open(const char* name, std::uint64_t parent) {
  if (!tracer().enabled()) return;
  active_ = true;
  span_.id = tracer().next_id();
  span_.parent = parent;
  span_.block = t_state.block;
  span_.thread = t_state.lane;
  span_.name = name;
  t_state.open.push_back(span_.id);
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = now_ns();
  t_state.open.pop_back();
  tracer().record(span_);
}

std::unordered_map<std::uint64_t, std::int64_t> self_times(
    const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto it = index.find(spans[i].parent);
    if (it == index.end()) continue;
    if (spans[it->second].thread != spans[i].thread) continue;
    children[it->second].push_back(i);
  }

  std::unordered_map<std::uint64_t, std::int64_t> self;
  self.reserve(spans.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& parent = spans[i];
    intervals.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t lo = std::max(spans[c].start_ns, parent.start_ns);
      const std::int64_t hi = std::min(spans[c].end_ns, parent.end_ns);
      if (hi > lo) intervals.emplace_back(lo, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool in_run = false;
    for (const auto& [lo, hi] : intervals) {
      if (in_run && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (in_run) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      in_run = true;
    }
    if (in_run) covered += run_hi - run_lo;
    self[parent.id] = parent.duration_ns() - covered;
  }
  return self;
}

double uncovered_share(const Span& span,
                       const std::unordered_map<std::uint64_t, std::int64_t>&
                           self) {
  return static_cast<double>(self.at(span.id)) /
         static_cast<double>(std::max<std::int64_t>(1, span.duration_ns()));
}

std::string chrome_trace_json(const std::vector<Span>& spans,
                              std::size_t max_events) {
  std::int64_t origin = 0;
  if (!spans.empty()) origin = spans.front().start_ns;
  for (const Span& span : spans) origin = std::min(origin, span.start_ns);

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const std::size_t count = std::min(spans.size(), max_events);
  char line[512];
  for (std::size_t i = 0; i < count; ++i) {
    const Span& s = spans[i];
    std::snprintf(
        line, sizeof line,
        "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,"
        "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
        "\"parent\":%llu,\"block\":%llu,\"synthetic\":%s}}",
        i ? "," : "", s.name, static_cast<unsigned>(s.thread),
        static_cast<double>(s.start_ns - origin) / 1e3,
        static_cast<double>(s.duration_ns()) / 1e3,
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        static_cast<unsigned long long>(s.block),
        s.synthetic ? "true" : "false");
    out += line;
  }
  std::snprintf(line, sizeof line,
                "],\"otherData\":{\"spans\":%zu,\"exported\":%zu}}\n",
                spans.size(), count);
  out += line;
  return out;
}

}  // namespace perfbench
