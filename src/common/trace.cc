#include "common/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>

#include "common/json.h"
#include "common/telemetry.h"
#include "common/thread_annotations.h"

namespace saged::telemetry {

SpanNode* SpanNode::FindOrAddChild(std::string_view child_name) {
  for (auto& child : children) {
    if (child->name == child_name) return child.get();
  }
  auto node = std::make_unique<SpanNode>();
  node->name = std::string(child_name);
  children.push_back(std::move(node));
  return children.back().get();
}

namespace {

/// Per-thread cap on buffered trace events: bounds memory under pathological
/// span rates (~64 MB worst case per thread at sizeof(TraceEvent)+name).
constexpr size_t kMaxEventsPerThread = size_t{1} << 20;

std::atomic<bool> g_trace_events_enabled{false};
std::atomic<uint64_t> g_dropped_events{0};
/// Steady-clock nanoseconds of the trace epoch; kUnsetEpoch until event
/// capture is first switched on (or re-pinned by ResetTraceEvents).
constexpr int64_t kUnsetEpoch = INT64_MIN;
std::atomic<int64_t> g_epoch_ns{kUnsetEpoch};

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-thread span tree plus the open-span stack. The owning thread is the
/// only writer; the mutex exists so SnapshotSpans / ResetSpans on another
/// thread observe a consistent tree (uncontended in steady state).
class ThreadTrace {
 public:
  ThreadTrace();
  ~ThreadTrace();

  void Enter(std::string_view name) {
    std::lock_guard<std::mutex> lock(mu);
    SpanNode* parent = stack.empty() ? &root : stack.back();
    stack.push_back(parent->FindOrAddChild(name));
  }

  void Exit(uint64_t elapsed_ns, int64_t start_ns, bool has_arg,
            uint64_t arg) {
    std::lock_guard<std::mutex> lock(mu);
    if (stack.empty()) return;  // Reset raced an open span; drop the sample
    SpanNode* node = stack.back();
    node->count += 1;
    node->total_ns += elapsed_ns;
    stack.pop_back();
    if (g_trace_events_enabled.load(std::memory_order_relaxed)) {
      int64_t epoch = g_epoch_ns.load(std::memory_order_relaxed);
      if (epoch == kUnsetEpoch) return;  // enable raced; skip this one
      if (events.size() >= kMaxEventsPerThread) {
        g_dropped_events.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      TraceEvent event;
      event.name = node->name;
      event.tid = thread_index;
      event.ts_ns = start_ns > epoch ? static_cast<uint64_t>(start_ns - epoch)
                                     : 0;
      event.dur_ns = elapsed_ns;
      event.arg = arg;
      event.has_arg = has_arg;
      events.push_back(std::move(event));
    }
  }

  /// Sets the open stack aside and re-enters `path` from the root: a
  /// pooled task's spans nest under the path it was submitted from, never
  /// under whatever the helping thread had open (ScopedSpanPath). Entering
  /// records nothing; the origin thread accounts the path's time.
  void Reenter(const std::vector<std::string>& path) {
    std::lock_guard<std::mutex> lock(mu);
    suspended.push_back(std::move(stack));
    stack.clear();
    SpanNode* parent = &root;
    for (const auto& name : path) {
      parent = parent->FindOrAddChild(name);
      stack.push_back(parent);
    }
  }

  /// Restores the stack Reenter set aside.
  void Resume() {
    std::lock_guard<std::mutex> lock(mu);
    stack = std::move(suspended.back());
    suspended.pop_back();
  }

  std::vector<std::string> OpenSpanNames() {
    std::lock_guard<std::mutex> lock(mu);
    std::vector<std::string> names;
    names.reserve(stack.size());
    for (const SpanNode* node : stack) names.push_back(node->name);
    return names;
  }

  std::mutex mu;
  // unnamed container of top-level spans
  SpanNode root SAGED_GUARDED_BY(mu);
  // open spans, outermost first
  std::vector<SpanNode*> stack SAGED_GUARDED_BY(mu);
  // stacks set aside by Reenter, innermost last
  std::vector<std::vector<SpanNode*>> suspended SAGED_GUARDED_BY(mu);
  // completed occurrences (capped)
  std::vector<TraceEvent> events SAGED_GUARDED_BY(mu);
  uint32_t thread_index = 0;  // set once at registration, immutable after
};

struct TraceRegistry {
  std::mutex mu;
  std::vector<ThreadTrace*> live SAGED_GUARDED_BY(mu);
  // trees / events of exited threads
  std::vector<MergedSpan> retired SAGED_GUARDED_BY(mu);
  std::vector<TraceEvent> retired_events SAGED_GUARDED_BY(mu);
  uint32_t next_thread_index SAGED_GUARDED_BY(mu) = 0;
};

TraceRegistry& Registry() {
  static auto& registry = *new TraceRegistry;
  return registry;
}

ThreadTrace& LocalTrace() {
  thread_local ThreadTrace trace;
  return trace;
}

MergedSpan* FindOrAddMerged(std::vector<MergedSpan>& siblings,
                            const std::string& name) {
  for (auto& node : siblings) {
    if (node.name == name) return &node;
  }
  siblings.push_back(MergedSpan{name, 0, 0, {}, {}});
  return &siblings.back();
}

void AddThread(std::vector<uint32_t>& threads, uint32_t id) {
  if (std::find(threads.begin(), threads.end(), id) == threads.end()) {
    threads.push_back(id);
    std::sort(threads.begin(), threads.end());
  }
}

void MergeNode(std::vector<MergedSpan>& dst, const SpanNode& src,
               uint32_t thread_index) {
  MergedSpan* node = FindOrAddMerged(dst, src.name);
  node->count += src.count;
  node->total_ns += src.total_ns;
  AddThread(node->threads, thread_index);
  for (const auto& child : src.children) {
    MergeNode(node->children, *child, thread_index);
  }
}

void MergeMerged(std::vector<MergedSpan>& dst, const MergedSpan& src) {
  MergedSpan* node = FindOrAddMerged(dst, src.name);
  node->count += src.count;
  node->total_ns += src.total_ns;
  for (uint32_t id : src.threads) AddThread(node->threads, id);
  for (const auto& child : src.children) MergeMerged(node->children, child);
}

ThreadTrace::ThreadTrace() {
  auto& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  thread_index = registry.next_thread_index++;
  registry.live.push_back(this);
}

ThreadTrace::~ThreadTrace() {
  auto& registry = Registry();
  std::lock_guard<std::mutex> registry_lock(registry.mu);
  {
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& child : root.children) {
      MergeNode(registry.retired, *child, thread_index);
    }
    registry.retired_events.insert(
        registry.retired_events.end(),
        std::make_move_iterator(events.begin()),
        std::make_move_iterator(events.end()));
    events.clear();
  }
  registry.live.erase(
      std::remove(registry.live.begin(), registry.live.end(), this),
      registry.live.end());
}

void AppendMicros(std::string& out, uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out += buf;
}

}  // namespace

std::vector<MergedSpan> SnapshotSpans() {
  auto& registry = Registry();
  std::lock_guard<std::mutex> registry_lock(registry.mu);
  std::vector<MergedSpan> out;
  for (const auto& node : registry.retired) MergeMerged(out, node);
  for (ThreadTrace* trace : registry.live) {
    std::lock_guard<std::mutex> lock(trace->mu);
    for (const auto& child : trace->root.children) {
      MergeNode(out, *child, trace->thread_index);
    }
  }
  return out;
}

void ResetSpans() {
  auto& registry = Registry();
  std::lock_guard<std::mutex> registry_lock(registry.mu);
  registry.retired.clear();
  for (ThreadTrace* trace : registry.live) {
    std::lock_guard<std::mutex> lock(trace->mu);
    if (trace->stack.empty() && trace->suspended.empty()) {
      trace->root.children.clear();
    }
  }
}

void SetTraceEventsEnabled(bool enabled) {
  bool was = g_trace_events_enabled.exchange(enabled);
  if (enabled && !was) {
    // Pin the epoch on the off→on transition only: events buffered across a
    // disable/enable cycle stay on one coherent timeline.
    int64_t expected = kUnsetEpoch;
    g_epoch_ns.compare_exchange_strong(expected, SteadyNowNs());
  }
}

std::vector<TraceEvent> SnapshotTraceEvents() {
  auto& registry = Registry();
  std::lock_guard<std::mutex> registry_lock(registry.mu);
  std::vector<TraceEvent> out = registry.retired_events;
  for (ThreadTrace* trace : registry.live) {
    std::lock_guard<std::mutex> lock(trace->mu);
    out.insert(out.end(), trace->events.begin(), trace->events.end());
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              return a.dur_ns > b.dur_ns;
            });
  return out;
}

uint64_t DroppedTraceEvents() {
  return g_dropped_events.load(std::memory_order_relaxed);
}

void ResetTraceEvents() {
  auto& registry = Registry();
  std::lock_guard<std::mutex> registry_lock(registry.mu);
  registry.retired_events.clear();
  for (ThreadTrace* trace : registry.live) {
    std::lock_guard<std::mutex> lock(trace->mu);
    trace->events.clear();
  }
  g_dropped_events.store(0, std::memory_order_relaxed);
  if (g_trace_events_enabled.load(std::memory_order_relaxed)) {
    // Fresh trace: restart the timeline at "now" so the first event lands
    // near ts 0 instead of minutes into an empty track.
    g_epoch_ns.store(SteadyNowNs(), std::memory_order_relaxed);
  } else {
    g_epoch_ns.store(kUnsetEpoch, std::memory_order_relaxed);
  }
}

std::string ChromeTraceJson() {
  std::vector<TraceEvent> events = SnapshotTraceEvents();
  std::vector<uint32_t> tids;
  for (const auto& event : events) AddThread(tids, event.tid);

  std::string out;
  out.reserve(128 + events.size() * 96);
  out += "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":";
  json::AppendJsonUint(out, DroppedTraceEvents());
  out += "},\"traceEvents\":[";
  bool first = true;
  for (uint32_t tid : tids) {
    if (!first) out += ',';
    first = false;
    out += "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    json::AppendJsonUint(out, tid);
    out += ",\"args\":{\"name\":";
    json::AppendJsonString(out, "saged-thread-" + std::to_string(tid));
    out += "}}";
  }
  for (const auto& event : events) {
    if (!first) out += ',';
    first = false;
    out += "\n{\"name\":";
    json::AppendJsonString(out, event.name);
    out += ",\"ph\":\"X\",\"pid\":1,\"tid\":";
    json::AppendJsonUint(out, event.tid);
    out += ",\"ts\":";
    AppendMicros(out, event.ts_ns);
    out += ",\"dur\":";
    AppendMicros(out, event.dur_ns);
    if (event.has_arg) {
      out += ",\"args\":{\"id\":";
      json::AppendJsonUint(out, event.arg);
      out += '}';
    }
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

Status WriteChromeTrace(const std::string& path) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) return Status::IoError("cannot open " + path + " for writing");
  file << ChromeTraceJson();
  if (!file.good()) return Status::IoError("short write to " + path);
  return Status::OK();
}

std::vector<std::string> CurrentSpanPath() {
  if (!Enabled()) return {};
  return LocalTrace().OpenSpanNames();
}

ScopedSpanPath::ScopedSpanPath(const std::vector<std::string>& path) {
  if (!Enabled()) return;
  LocalTrace().Reenter(path);
  active_ = true;
}

ScopedSpanPath::~ScopedSpanPath() {
  if (active_) LocalTrace().Resume();
}

ScopedSpan::ScopedSpan(std::string_view name) : active_(Enabled()) {
  if (!active_) return;
  LocalTrace().Enter(name);
  start_ = std::chrono::steady_clock::now();
}

ScopedSpan::ScopedSpan(std::string_view name, uint64_t arg)
    : active_(Enabled()), has_arg_(true), arg_(arg) {
  if (!active_) return;
  LocalTrace().Enter(name);
  start_ = std::chrono::steady_clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  auto now = std::chrono::steady_clock::now();
  auto elapsed = now - start_;
  int64_t start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         start_.time_since_epoch())
                         .count();
  LocalTrace().Exit(
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()),
      start_ns, has_arg_, arg_);
}

}  // namespace saged::telemetry
