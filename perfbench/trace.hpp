// Span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark's own code around each call into a
// layer (build, calibrate, resolve, compile, run, serve request): name,
// start, end, the span that caused it, and the operation id shared by all
// spans of one prediction or request. They are kept in memory and written
// at exit as Chrome trace-event JSON plus a per-layer self-time table.
//
// A Span always measures its own wall time, so the untraced run uses the
// same code path; only recording is skipped when no Tracer is attached.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "support/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct SpanRecord {
  std::string name;
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1 for a root span
  std::int64_t op = 0;       ///< operation (prediction / request) id
  int lane = 0;              ///< client thread, for the trace viewer
  std::string tag;           ///< case or outcome ("tomcatv", "cache_hit")
  double start_us = 0.0;     ///< relative to the tracer's epoch
  double end_us = 0.0;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::int64_t next_id();
  void record(SpanRecord span);
  double us_since_epoch(Clock::time_point t) const;

  std::vector<SpanRecord> spans() const;

  /// Wall seconds of every span, grouped by name.
  std::map<std::string, std::vector<double>> durations() const;

  /// Wall seconds of the spans called `name`, grouped by tag.
  std::map<std::string, std::vector<double>> durations_by_tag(
      const std::string& name) const;

  /// Per span name: total duration minus the part covered by its child
  /// spans, summed over all spans of that name (seconds).
  std::map<std::string, double> self_seconds() const;

  /// Chrome trace-event JSON ("X" events, one tid per lane) with `meta`
  /// under "metadata".
  void write_chrome_json(const std::string& path,
                         const stgsim::json::Value& meta) const;

  /// Plain-text table: layer, spans, total s, self s, self share.
  void write_self_time_table(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
  std::int64_t next_id_ = 1;       // guarded by mu_
};

/// Scoped span. Measures wall time whether or not a tracer is attached;
/// records itself into the tracer (if any) when ended.
class Span {
 public:
  Span(Tracer* tracer, std::string name, std::int64_t parent,
       std::int64_t op, std::string tag = "", int lane = 0);
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Id to pass as the parent of child spans (-1 when untraced).
  std::int64_t id() const { return id_; }

  /// Labels the span after it started (e.g. with the request's outcome).
  void set_tag(std::string tag) { tag_ = std::move(tag); }

  /// Closes the span (idempotent) and returns its wall seconds.
  double end();
  /// When end() closed the span.
  Clock::time_point end_time() const { return stop_; }

 private:
  Tracer* tracer_;
  std::string name_;
  std::int64_t id_ = -1;
  std::int64_t parent_;
  std::int64_t op_;
  std::string tag_;
  int lane_;
  Clock::time_point start_;
  Clock::time_point stop_;
  double seconds_ = -1.0;
};

}  // namespace perfbench
