#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace json = stgsim::json;

Tracer::Tracer() : epoch_(Clock::now()) {}

std::int64_t Tracer::next_id() {
  std::lock_guard lk(mu_);
  return next_id_++;
}

void Tracer::record(SpanRecord span) {
  std::lock_guard lk(mu_);
  spans_.push_back(std::move(span));
}

double Tracer::us_since_epoch(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard lk(mu_);
  return spans_;
}

std::map<std::string, std::vector<double>> Tracer::durations() const {
  std::map<std::string, std::vector<double>> out;
  for (const SpanRecord& s : spans()) {
    out[s.name].push_back((s.end_us - s.start_us) * 1e-6);
  }
  return out;
}

std::map<std::string, std::vector<double>> Tracer::durations_by_tag(
    const std::string& name) const {
  std::map<std::string, std::vector<double>> out;
  for (const SpanRecord& s : spans()) {
    if (s.name == name) out[s.tag].push_back((s.end_us - s.start_us) * 1e-6);
  }
  return out;
}

std::map<std::string, double> Tracer::self_seconds() const {
  const std::vector<SpanRecord> all = spans();
  std::map<std::int64_t, std::vector<std::pair<double, double>>> children;
  for (const SpanRecord& s : all) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_us, s.end_us);
  }
  std::map<std::string, double> out;
  for (const SpanRecord& s : all) {
    // Union of the child intervals, clipped to this span.
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>> iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_lo = 0.0, cur_hi = -1.0;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_us);
        hi = std::min(hi, s.end_us);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    out[s.name] += (s.end_us - s.start_us - covered) * 1e-6;
  }
  return out;
}

void Tracer::write_chrome_json(const std::string& path,
                               const json::Value& meta) const {
  json::Value events = json::Value::array();
  for (const SpanRecord& s : spans()) {
    json::Value e = json::Value::object();
    e.set("name", s.name);
    e.set("ph", "X");
    e.set("pid", 1);
    e.set("tid", s.lane);
    e.set("ts", s.start_us);
    e.set("dur", s.end_us - s.start_us);
    json::Value args = json::Value::object();
    args.set("id", s.id);
    args.set("parent", s.parent);
    args.set("op", s.op);
    if (!s.tag.empty()) args.set("tag", s.tag);
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }
  json::Value doc = json::Value::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  doc.set("metadata", meta);
  std::ofstream os(path);
  os << doc.dump() << '\n';
  if (!os) throw std::runtime_error("cannot write " + path);
}

void Tracer::write_self_time_table(const std::string& path) const {
  const std::map<std::string, std::vector<double>> dur = durations();
  const std::map<std::string, double> self = self_seconds();
  double total_self = 0.0;
  for (const auto& [_, v] : self) total_self += v;
  std::ofstream os(path);
  char line[256];
  std::snprintf(line, sizeof line, "%-28s %8s %12s %12s %8s\n", "layer",
                "spans", "total_s", "self_s", "self_%");
  os << line;
  for (const auto& [name, v] : dur) {
    double total = 0.0;
    for (const double d : v) total += d;
    const double s = self.at(name);
    std::snprintf(line, sizeof line, "%-28s %8zu %12.6f %12.6f %8.2f\n",
                  name.c_str(), v.size(), total, s,
                  total_self > 0 ? 100.0 * s / total_self : 0.0);
    os << line;
  }
  if (!os) throw std::runtime_error("cannot write " + path);
}

Span::Span(Tracer* tracer, std::string name, std::int64_t parent,
           std::int64_t op, std::string tag, int lane)
    : tracer_(tracer),
      name_(std::move(name)),
      parent_(parent),
      op_(op),
      tag_(std::move(tag)),
      lane_(lane) {
  if (tracer_ != nullptr) id_ = tracer_->next_id();
  start_ = Clock::now();
}

double Span::end() {
  if (seconds_ >= 0.0) return seconds_;
  stop_ = Clock::now();
  seconds_ = std::chrono::duration<double>(stop_ - start_).count();
  if (tracer_ != nullptr) {
    tracer_->record({std::move(name_), id_, parent_, op_, lane_,
                     std::move(tag_), tracer_->us_since_epoch(start_),
                     tracer_->us_since_epoch(stop_)});
  }
  return seconds_;
}

}  // namespace perfbench
