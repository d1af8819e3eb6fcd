// The benchmark's workloads. Each runs closed-loop passes until the time
// budget is spent, checks every output, and fills Result: end-to-end
// metrics when untraced, per-layer metrics (from the spans of the traced
// passes) when a Tracer is given.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "predict.hpp"
#include "trace.hpp"

namespace perfbench {

/// am_scale: one AM prediction at a time per app, sequential conservative
/// scheduler, 4096-16384 target ranks calibrated at 16.
std::vector<PredictCase> am_scale_cases(const Options& o);

/// parallel_host: tomcatv and sweep3d on min(4, nproc) workers with the
/// comm partition, conservative and optimistic.
std::vector<PredictCase> parallel_host_cases(const Options& o);

void run_prediction_workload(const Options& o,
                             const std::vector<PredictCase>& cases,
                             Tracer* tracer, Result* result);

/// validate_serve: a validation campaign through an in-process
/// serve::Service (cold phase by concurrent clients, then a closed loop of
/// mostly cache-hit run requests).
void run_validate_serve(const Options& o, Tracer* tracer, Result* result);

/// Each workload's set-up alone, for the set-up time measurement: what
/// runs between process start and the first timed operation.
void setup_predictions(const Options& o,
                       const std::vector<PredictCase>& cases);
void setup_validate_serve(const Options& o);

}  // namespace perfbench
