#ifndef SAGED_COMMON_TRACE_H_
#define SAGED_COMMON_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

/// Scoped spans forming a per-stage timing tree.
///
/// Each thread keeps its own span stack (no cross-thread contention on the
/// hot path; one uncontended mutex acquisition per enter/exit keeps the
/// structure readable by DumpJson mid-run). Trees from worker threads are
/// merged by span name at export time, so a span opened inside the
/// detector's column workers shows up once with the contributing thread
/// ids attached.
///
/// Naming convention: `phase/stage` or `phase/stage/substage`, e.g.
/// `detect/featurize` or `extract/base_models` (see DESIGN.md).
namespace saged::telemetry {

/// One node of a thread-local span tree.
struct SpanNode {
  std::string name;
  uint64_t count = 0;     // completed invocations
  uint64_t total_ns = 0;  // wall time summed over invocations
  std::vector<std::unique_ptr<SpanNode>> children;

  SpanNode* FindOrAddChild(std::string_view child_name);
};

/// A span tree node after merging across threads (what DumpJson emits).
struct MergedSpan {
  std::string name;
  uint64_t count = 0;
  uint64_t total_ns = 0;
  /// Registration-order ids of the threads that executed this span.
  std::vector<uint32_t> threads;
  std::vector<MergedSpan> children;
};

/// Merges every thread's tree (live and retired) into one forest.
std::vector<MergedSpan> SnapshotSpans();

// ---------------------------------------------------------------------------
// Trace events: per-occurrence records behind the aggregated tree.
//
// The span tree above aggregates (count/total per name); trace events keep
// every individual span occurrence with its thread id and steady-clock
// timestamps, so executor parallelism, help-while-waiting stalls, and
// streaming block overlap become visible per thread in Perfetto /
// chrome://tracing. Capture is a second, independent switch because events
// cost memory (one record per span exit) where the tree costs O(distinct
// names).
// ---------------------------------------------------------------------------

/// One completed span occurrence — a Chrome trace-event "complete" ("X")
/// event. Timestamps are steady-clock nanoseconds since the process trace
/// epoch (the first moment event capture was switched on).
struct TraceEvent {
  std::string name;
  /// Registration-order id of the thread that ran the span (same ids as
  /// MergedSpan::threads).
  uint32_t tid = 0;
  uint64_t ts_ns = 0;   // span start, relative to the trace epoch
  uint64_t dur_ns = 0;  // wall duration
  /// Optional per-occurrence payload (SAGED_TRACE_SPAN_ARG): block index,
  /// request id, column index — shown as args.id in the Chrome trace.
  uint64_t arg = 0;
  bool has_arg = false;
};

/// Trace-event capture switch. Independent of Enabled(): events are only
/// recorded when BOTH are on (ScopedSpan does nothing at all when Enabled()
/// is false). SetTraceEventsEnabled(true) also pins the trace epoch.
void SetTraceEventsEnabled(bool enabled);

/// Events from live and exited threads, sorted by (ts_ns, dur_ns
/// descending) so a parent precedes its children at equal start times.
std::vector<TraceEvent> SnapshotTraceEvents();

/// Events discarded after a thread hit its per-thread buffer cap (bounded
/// memory under pathological span rates). Reported in the Chrome trace
/// metadata; reset by ResetTraceEvents.
uint64_t DroppedTraceEvents();

/// Clears captured events (live and retired buffers) and the dropped
/// counter. Safe while spans are open: only completed events are stored.
void ResetTraceEvents();

/// The captured events as Chrome trace-event JSON: one "M" thread_name
/// metadata event per contributing thread, then the "X" complete events in
/// timestamp order, ts/dur in microseconds. Loadable in Perfetto and
/// chrome://tracing (schema in DESIGN.md §Perf observability).
std::string ChromeTraceJson();
Status WriteChromeTrace(const std::string& path);

/// Names of the spans currently open on the calling thread, outermost
/// first. Empty when telemetry is disabled or no span is open. The executor
/// captures this at task-submission time so pooled work nests correctly.
std::vector<std::string> CurrentSpanPath();

/// Re-opens a span path captured on another thread (via CurrentSpanPath),
/// so spans opened inside a pooled task attach under the submitter's span.
/// The path is entered from the root: the calling thread's own open spans
/// are set aside for the scope and restored on exit, so a thread that
/// help-drains a task while it waits does not nest the task under itself.
/// Structural only: closing the path adds no counts or time to the
/// re-entered nodes (the submitting thread's own ScopedSpan already
/// accounts the wall time once).
class ScopedSpanPath {
 public:
  explicit ScopedSpanPath(const std::vector<std::string>& path);
  ~ScopedSpanPath();

  ScopedSpanPath(const ScopedSpanPath&) = delete;
  ScopedSpanPath& operator=(const ScopedSpanPath&) = delete;

 private:
  bool active_ = false;
};

/// Clears retired trees and every quiescent live tree. Trees of threads
/// currently inside a span are left untouched (spans keep their open
/// stack valid); call only between runs / in tests.
void ResetSpans();

/// RAII span. Does nothing when telemetry is disabled at construction
/// time; an in-flight span finishes normally if telemetry is toggled off
/// midway.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : ScopedSpan(std::string_view(name)) {}
  explicit ScopedSpan(const std::string& name)
      : ScopedSpan(std::string_view(name)) {}
  explicit ScopedSpan(std::string_view name);
  /// Span with a per-occurrence metadata payload (block index, request id)
  /// carried into the exported trace event as args.id. The aggregated tree
  /// ignores it.
  ScopedSpan(std::string_view name, uint64_t arg);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_;
  bool has_arg_ = false;
  uint64_t arg_ = 0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace saged::telemetry

#define SAGED_TRACE_CONCAT_IMPL_(a, b) a##b
#define SAGED_TRACE_CONCAT_(a, b) SAGED_TRACE_CONCAT_IMPL_(a, b)

/// Opens a span covering the rest of the enclosing scope.
#define SAGED_TRACE_SPAN(name)             \
  ::saged::telemetry::ScopedSpan SAGED_TRACE_CONCAT_(saged_span_, __LINE__)( \
      name)

/// Opens a span carrying a numeric per-occurrence payload (exported as
/// args.id on the Chrome trace event — e.g. the streaming block index).
#define SAGED_TRACE_SPAN_ARG(name, arg)    \
  ::saged::telemetry::ScopedSpan SAGED_TRACE_CONCAT_(saged_span_, __LINE__)( \
      ::std::string_view(name), static_cast<uint64_t>(arg))

#endif  // SAGED_COMMON_TRACE_H_
