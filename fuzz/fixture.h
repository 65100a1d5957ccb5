#ifndef FLOWCUBE_FUZZ_FIXTURE_H_
#define FLOWCUBE_FUZZ_FIXTURE_H_

#include "common/logging.h"
#include "common/status.h"
#include "flowcube/plan.h"
#include "gen/path_generator.h"
#include "stream/incremental_maintainer.h"

namespace flowcube {

// The small two-dimension pipeline the FCSP v2 and shard-body harnesses
// decode against and fuzz_make_seeds writes its seeds with. Both decoders
// validate against a schema (the checkpoint readers also against a config
// fingerprint), so seeds built for any other config would be rejected at
// the first branch and teach the fuzzer nothing about the grammar. The
// store tests and tools/fcsp_tool use the same generator config.
inline GeneratorConfig FuzzFixtureConfig() {
  GeneratorConfig cfg;
  cfg.num_dimensions = 2;
  cfg.dim_distinct_per_level = {2, 2, 2};
  cfg.num_location_groups = 3;
  cfg.locations_per_group = 3;
  cfg.num_sequences = 6;
  cfg.min_sequence_length = 2;
  cfg.max_sequence_length = 5;
  cfg.seed = 909;
  return cfg;
}

struct FuzzFixture {
  SchemaPtr schema;
  FlowCubePlan plan;
  IncrementalMaintainerOptions options;
};

// Built once per process.
inline const FuzzFixture& GetFuzzFixture() {
  static const FuzzFixture* fixture = [] {
    auto* fx = new FuzzFixture();
    const PathDatabase db = PathGenerator(FuzzFixtureConfig()).Generate(1);
    fx->schema = db.schema_ptr();
    Result<FlowCubePlan> plan = FlowCubePlan::Default(db.schema());
    FC_CHECK(plan.ok());
    fx->plan = plan.value();
    fx->options.build.min_support = 2;
    return fx;
  }();
  return *fixture;
}

}  // namespace flowcube

#endif  // FLOWCUBE_FUZZ_FIXTURE_H_
