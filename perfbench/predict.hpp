// One full AM prediction, through the same public calls `stgsim run` makes
// and in the same order: campaign::run_calibration, campaign::resolve_spec,
// apps::build_app, core::compile, harness::run_program.
#pragma once

#include <cstdint>
#include <string>

#include "harness/runner.hpp"
#include "trace.hpp"

namespace perfbench {

struct PredictCase {
  std::string app;
  int procs = 0;
  int calibrate_procs = 16;
  /// 0 = sequential scheduler; >= 2 uses the comm partition.
  int workers = 0;
  stgsim::harness::Schedule schedule =
      stgsim::harness::Schedule::kConservative;

  /// "tomcatv" or "tomcatv.optimistic": the metric suffix of this case.
  std::string label() const;
};

struct Prediction {
  bool ok = false;
  std::string diagnostic;
  std::string digest;  ///< harness::run_digest_hex of the outcome
  double wall_s = 0.0;
  // Wall seconds of each call, from the spans around them.
  double build_s = 0.0;
  double calibrate_s = 0.0;
  double resolve_s = 0.0;
  double compile_s = 0.0;
  double run_s = 0.0;
  stgsim::harness::RunOutcome outcome;
};

/// Runs `c` with `seed` as RunConfig::seed. Spans go to `tracer` (may be
/// null) under operation id `op`. Never throws: a failed call becomes a
/// prediction with ok == false.
Prediction predict(const PredictCase& c, std::uint64_t seed, Tracer* tracer,
                   std::int64_t op);

/// Times harness::comm_affinity and simk::make_partition with the
/// arguments run_program passes them for `c` (a threaded comm-partition
/// run). Spans "harness.affinity" and "sim.partition" go to `tracer`.
struct PartitionProbe {
  double affinity_s = 0.0;
  double partition_s = 0.0;
};
PartitionProbe probe_partition(const PredictCase& c, std::uint64_t seed,
                               Tracer* tracer, std::int64_t op);

}  // namespace perfbench
