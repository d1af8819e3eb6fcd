// Shared types of the benchmark binary: run options, the per-run result
// (operations attempted/failed plus named metric values) and small
// statistics helpers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// The seed whose digests are recorded in golden.json.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and a single pass: the benchmark's own smoke test.
  bool smoke = false;
  /// Do the workload's set-up, print "ready", and exit.
  bool setup_only = false;
  /// Traces and the service's result caches go under this directory.
  std::string out_dir = ".bench_out";
  /// Digests recorded at kDefaultSeed ("" = no golden check).
  std::string golden_path;
  int nproc = 1;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few, for the log
  /// Metric name -> value. End-to-end metrics in untraced runs, per-layer
  /// metrics in traced runs.
  std::map<std::string, double> metrics;
  /// The workload's own figures behind the shared end-to-end metrics, by
  /// the issue's names ("predict_s.tomcatv", "hit_request_p99_ms"):
  /// printed with their units, not part of the result line.
  std::map<std::string, std::pair<double, std::string>> details;
  /// Run digest of each prediction case ("tomcatv@16384"), first pass.
  std::map<std::string, std::string> digests;

  /// Counts one operation; `ok` false marks it failed with `why`.
  void count(bool ok, const std::string& why);
};

double median(std::vector<double> v);
/// Geometric mean of positive values. 0 for an empty sample.
double geometric_mean(const std::vector<double>& v);
/// Linear-interpolated percentile, p in [0, 1]. 0 for an empty sample.
double percentile(std::vector<double> v, double p);

/// The closed loop of passes every workload runs. Passes continue until
/// the minimum count is reached and another pass of typical length would
/// overrun the time budget. A traced run alternates traced and untraced
/// passes, so both have at least one. Each pass's resident-set high-water
/// mark is taken separately (the kernel's peak is reset before it).
class PassLoop {
 public:
  PassLoop(const Options& o, bool traced_run);

  /// Starts the next pass, or returns false when the loop is over.
  /// `*traced` tells whether this pass records spans.
  bool next(bool* traced);
  /// Ends the pass started by next(); `wall_s` is its wall time.
  void done(double wall_s);
  /// Restarts the current pass's peak-RSS window here, so the pass's peak
  /// covers only what follows.
  void restart_peak();

  const std::vector<double>& untraced_walls() const { return untraced_walls_; }
  const std::vector<double>& traced_walls() const { return traced_walls_; }
  /// Median over untraced passes of the pass's peak RSS, in MB.
  double peak_rss_mb() const;

 private:
  const Options& o_;
  bool traced_run_;
  Clock::time_point start_;
  int pass_ = 0;
  bool pass_traced_ = false;
  std::vector<double> untraced_walls_, traced_walls_, peaks_mb_;
};

}  // namespace perfbench
