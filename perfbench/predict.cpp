#include "predict.hpp"

#include <exception>
#include <map>

#include "apps/registry.hpp"
#include "campaign/exec.hpp"
#include "core/compiler.hpp"
#include "harness/affinity.hpp"
#include "harness/config_json.hpp"
#include "harness/digest.hpp"

namespace perfbench {

using namespace stgsim;

namespace {

harness::RunSpec spec_for(const PredictCase& c, std::uint64_t seed) {
  harness::RunSpec spec;
  spec.app = c.app;
  spec.config.nprocs = c.procs;
  spec.config.mode = harness::Mode::kAnalytical;
  spec.config.seed = seed;
  spec.config.threads = c.workers;
  if (c.workers >= 2) spec.config.partition = simk::PartitionMode::kComm;
  spec.config.schedule = c.schedule;
  spec.calibrate_procs = c.calibrate_procs;
  return spec;
}

}  // namespace

std::string PredictCase::label() const {
  return schedule == harness::Schedule::kOptimistic ? app + ".optimistic"
                                                    : app;
}

Prediction predict(const PredictCase& c, std::uint64_t seed, Tracer* tracer,
                   std::int64_t op) {
  Prediction p;
  const std::string tag = c.label();
  Span root(tracer, "predict", -1, op, tag);
  try {
    const harness::RunSpec spec = spec_for(c, seed);

    Span calib_span(tracer, "campaign.calibrate", root.id(), op, tag);
    const std::map<std::string, double> calib =
        campaign::run_calibration(spec);
    p.calibrate_s = calib_span.end();

    Span resolve_span(tracer, "campaign.resolve", root.id(), op, tag);
    const harness::RunSpec resolved = campaign::resolve_spec(spec, &calib);
    p.resolve_s = resolve_span.end();

    Span build_span(tracer, "apps.build", root.id(), op, tag);
    const ir::Program prog = apps::build_app(
        apps::AppSpec{resolved.app, resolved.app_options},
        resolved.config.nprocs);
    p.build_s = build_span.end();

    Span compile_span(tracer, "core.compile", root.id(), op, tag);
    const core::CompileResult compiled = core::compile(prog);
    p.compile_s = compile_span.end();

    Span run_span(tracer, "harness.run", root.id(), op, tag);
    p.outcome =
        harness::run_program(compiled.simplified.program, resolved.config);
    p.run_s = run_span.end();
    if (tracer != nullptr) {
      // The engine's own time (RunOutcome::sim_host_seconds) as a child of
      // harness.run, placed at its end: Engine::run is the last big step of
      // run_program, after world, platform and fiber construction.
      const double end_us = tracer->us_since_epoch(run_span.end_time());
      tracer->record({"sim.engine", tracer->next_id(), run_span.id(), op, 0,
                      tag, end_us - p.outcome.sim_host_seconds * 1e6, end_us});
    }

    p.ok = p.outcome.ok();
    p.diagnostic = p.outcome.diagnostic;
    p.digest = harness::run_digest_hex(p.outcome);
  } catch (const std::exception& e) {
    p.ok = false;
    p.diagnostic = e.what();
  }
  p.wall_s = root.end();
  return p;
}

PartitionProbe probe_partition(const PredictCase& c, std::uint64_t seed,
                               Tracer* tracer, std::int64_t op) {
  const harness::RunSpec spec = spec_for(c, seed);
  const ir::Program prog = apps::build_app(
      apps::AppSpec{spec.app, spec.app_options}, spec.config.nprocs);
  const core::CompileResult compiled = core::compile(prog);

  PartitionProbe out;
  const std::string tag = c.label();
  Span root(tracer, "partition_probe", -1, op, tag);
  Span aff_span(tracer, "harness.affinity", root.id(), op, tag);
  const simk::Affinity aff =
      harness::comm_affinity(compiled.simplified.program, spec.config.nprocs);
  out.affinity_s = aff_span.end();
  Span part_span(tracer, "sim.partition", root.id(), op, tag);
  [[maybe_unused]] const std::vector<int> parts =
      simk::make_partition(spec.config.partition, spec.config.nprocs,
                           spec.config.threads, &aff);
  out.partition_s = part_span.end();
  return out;
}

}  // namespace perfbench
