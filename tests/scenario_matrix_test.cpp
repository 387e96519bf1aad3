// Exhaustive scenario-matrix harness (PR 10).
//
// The registry is a declarative catalog: every (scenario/platform, app,
// policy, power model) combination it advertises is a *cell* that a client
// can request by name. This suite enumerates the full cross product — the
// built-in preset apps plus every attached pack app, including the
// synthetic stressor templates — and drives each cell through the real
// service path for one simulated second. The contract per cell is
// structural, not numerical: either the job completes with a payload, or
// it is refused/failed with a typed error code. No cell may crash, hang,
// or fail untyped. Canonical keys must be unique across cells (two cells
// the simulator would treat identically must not both be advertised).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "power/model_registry.h"
#include "service/scenario_registry.h"
#include "service/service.h"
#include "workload/pack.h"
#include "workload/synthetic.h"

namespace mobitherm::service {
namespace {

struct Cell {
  std::string scenario;
  std::string app;
  std::string policy;
  std::string model;

  std::string label() const {
    return scenario + "/" + app + "/" + policy + "/" + model;
  }
};

/// The standard registry with the built-in synthetic stressor pack
/// attached — the matrix the serve example exposes with no --packs flag.
ScenarioRegistry matrix_registry() {
  ScenarioRegistry registry = ScenarioRegistry::standard();
  auto packs = std::make_shared<workload::PackSet>();
  packs->add(workload::synthetic_stressor_pack());
  registry.attach_packs(std::move(packs));
  return registry;
}

/// Every advertised (scenario, app, policy, model) combination.
std::vector<Cell> enumerate_cells(const ScenarioRegistry& registry) {
  std::vector<Cell> cells;
  const std::vector<std::string> models =
      power::standard_model_registry().names();
  for (const std::string& scenario : registry.names()) {
    const ScenarioRegistry::Entry& entry = registry.at(scenario);
    for (const std::string& app : registry.apps_for(scenario)) {
      for (const std::string& policy : entry.policies) {
        for (const std::string& model : models) {
          cells.push_back(Cell{scenario, app, policy, model});
        }
      }
    }
  }
  return cells;
}

SimRequest cell_request(const Cell& cell) {
  SimRequest request;
  request.scenario = cell.scenario;
  request.app = cell.app;
  request.policy = cell.policy;
  request.power_model = cell.model;
  request.duration_s = 1.0;  // one simulated second per cell
  return request;
}

TEST(ScenarioMatrix, RegisteredCellCountMeetsTheFloor) {
  // Built-in presets alone: (7 nexus apps x 2 policies + 2 odroid apps x 3
  // policies) x 2 power models.
  const ScenarioRegistry builtin = ScenarioRegistry::standard();
  EXPECT_GE(enumerate_cells(builtin).size(), 40u);

  // The synthetic stressor pack widens every scenario's app axis.
  const ScenarioRegistry registry = matrix_registry();
  const std::vector<Cell> cells = enumerate_cells(registry);
  EXPECT_GE(cells.size(), 80u);
  RecordProperty("matrix_cells", static_cast<int>(cells.size()));
}

TEST(ScenarioMatrix, CanonicalKeysAreUniqueAcrossAllCells) {
  const ScenarioRegistry registry = matrix_registry();
  std::set<std::string> keys;
  for (const Cell& cell : enumerate_cells(registry)) {
    const std::string key = registry.canonical_key(cell_request(cell));
    EXPECT_TRUE(keys.insert(key).second)
        << "duplicate canonical key for cell " << cell.label() << ": "
        << key;
    // Every key pins the code version and the model; pack cells also pin
    // the pack content hash.
    EXPECT_NE(key.find(kSimCodeVersion), std::string::npos) << key;
    EXPECT_NE(key.find(";model=" + cell.model), std::string::npos) << key;
    if (cell.app.find('/') != std::string::npos) {
      EXPECT_NE(key.find(";pack="), std::string::npos) << key;
    }
  }
}

TEST(ScenarioMatrix, EveryCellRunsThroughTheServicePath) {
  const ScenarioRegistry registry = matrix_registry();
  const std::vector<Cell> cells = enumerate_cells(registry);
  ASSERT_GE(cells.size(), 40u);

  ServiceConfig config;
  config.workers = 2;
  config.queue_capacity = 8;
  config.cache_capacity = 8;
  SimService service(registry, config);

  std::set<std::string> canonicals;
  std::size_t completed = 0;
  for (const Cell& cell : cells) {
    SCOPED_TRACE(cell.label());
    SubmitOutcome out;
    try {
      out = service.submit(cell_request(cell));
    } catch (const std::exception& e) {
      ADD_FAILURE() << "submit threw: " << e.what();
      continue;
    }
    if (!out.accepted) {
      // A refusal is acceptable only as a *typed* error.
      EXPECT_FALSE(out.reject_code.empty());
      continue;
    }
    ASSERT_TRUE(service.wait(out.id, 600.0));
    const auto status = service.status(out.id);
    ASSERT_TRUE(status.has_value());
    if (status->state == JobState::kDone) {
      const auto result = service.result(out.id);
      ASSERT_NE(result, nullptr);
      EXPECT_FALSE(result->payload.empty());
      ++completed;
    } else {
      // Failure is allowed, but only with a typed code and detail.
      EXPECT_EQ(status->state, JobState::kFailed);
      EXPECT_FALSE(status->error_code.empty());
      EXPECT_FALSE(status->error.empty());
    }
    EXPECT_TRUE(canonicals.insert(status->canonical).second)
        << "two cells resolved to one canonical key: " << status->canonical;
  }
  // The matrix is not allowed to be an error catalog: the overwhelming
  // majority of advertised cells must actually simulate.
  EXPECT_GE(completed, cells.size() - cells.size() / 10)
      << completed << " of " << cells.size() << " cells completed";
}

TEST(ScenarioMatrix, PackAndModelAxesChangeTheCacheKey) {
  const ScenarioRegistry registry = matrix_registry();

  // Same request, different model: different key, different hash.
  SimRequest base;
  base.scenario = "nexus";
  base.app = "paperio";
  base.duration_s = 1.0;
  SimRequest alt = base;
  alt.power_model = "devogeleer";
  EXPECT_NE(registry.canonical_key(base), registry.canonical_key(alt));
  EXPECT_NE(fnv1a64(registry.canonical_key(base)),
            fnv1a64(registry.canonical_key(alt)));

  // A pack app resolves and embeds the pack's content hash.
  SimRequest pack_req;
  pack_req.scenario = "nexus";
  pack_req.app = "synthetic/cpu_burn_ramp";
  pack_req.duration_s = 1.0;
  const std::string key = registry.canonical_key(pack_req);
  const workload::WorkloadPack* pack =
      registry.packs()->find("synthetic");
  ASSERT_NE(pack, nullptr);
  EXPECT_NE(key.find(";pack=" + pack->content_hash_hex()),
            std::string::npos)
      << key;
}

}  // namespace
}  // namespace mobitherm::service
