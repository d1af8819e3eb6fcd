#include "bench.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>

namespace perfbench {

void Result::count(bool ok, const std::string& why) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 20) failures.push_back(why);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(idx));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double geometric_mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

namespace {

/// Resets the kernel's peak-RSS counter of this process (clear_refs "5").
/// Where that is not permitted, VmHWM stays the lifetime peak.
void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

/// VmHWM of this process in MB; the lifetime maximum from getrusage when
/// /proc is unavailable.
double current_peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

}  // namespace

PassLoop::PassLoop(const Options& o, bool traced_run)
    : o_(o), traced_run_(traced_run), start_(Clock::now()) {}

bool PassLoop::next(bool* traced) {
  const std::size_t min_untraced = traced_run_ || o_.smoke ? 1 : 2;
  const bool mins_met = untraced_walls_.size() >= min_untraced &&
                        (!traced_run_ || !traced_walls_.empty());
  if (mins_met) {
    if (o_.smoke) return false;
    std::vector<double> all = untraced_walls_;
    all.insert(all.end(), traced_walls_.begin(), traced_walls_.end());
    if (seconds_since(start_) + median(all) > o_.seconds) return false;
  }
  pass_traced_ = traced_run_ && pass_ % 2 == 0;
  *traced = pass_traced_;
  restart_peak();
  return true;
}

void PassLoop::restart_peak() {
  // The window counts only its own memory, not heap the allocator kept
  // from earlier work.
  malloc_trim(0);
  reset_peak_rss();
}

void PassLoop::done(double wall_s) {
  const double peak_mb = current_peak_rss_mb();
  std::cout << "pass " << pass_ << (pass_traced_ ? " traced" : "") << ": "
            << wall_s << " s, peak RSS " << peak_mb << " MB\n";
  ++pass_;
  if (pass_traced_) {
    traced_walls_.push_back(wall_s);
  } else {
    untraced_walls_.push_back(wall_s);
    peaks_mb_.push_back(peak_mb);
  }
}

double PassLoop::peak_rss_mb() const { return median(peaks_mb_); }

}  // namespace perfbench
