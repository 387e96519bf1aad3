// Workload-pack parser offensive + determinism contract (PR 10).
//
// Negative corpus: every malformed pack in tests/pack_fixtures/ must
// produce a typed util::ConfigError naming the origin file and the
// offending JSON path — never a crash, never a partially registered pack.
// Determinism: parsing is a pure function of the document's *semantics*
// (reformatting changes nothing, editing a field changes the content hash
// and therefore every canonical key derived from it), and a pack run
// served back from the result cache is byte-identical to the fresh run.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "service/scenario_registry.h"
#include "service/service.h"
#include "util/error.h"
#include "workload/pack.h"
#include "workload/synthetic.h"

namespace mobitherm::workload {
namespace {

using util::ConfigError;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string fixture_path(const std::string& name) {
  return std::string(MOBITHERM_PACK_FIXTURES_DIR) + "/" + name;
}

// --- negative corpus --------------------------------------------------------

struct BadPack {
  const char* file;
  /// Substring the ConfigError must carry: the offending JSON path (or
  /// parse-level detail for documents that never reach the schema).
  const char* expected;
};

const BadPack kCorpus[] = {
    {"negative_duration.json", "apps[1].phases[1].duration_s"},
    {"unknown_field.json", "apps[0].target_fsp: unknown field"},
    {"duplicate_app.json", "apps[1].name: duplicate app name 'twin'"},
    {"missing_apps.json", "missing required field 'apps'"},
    {"bad_template_ref.json",
     "apps[0].template.name: unknown template 'quantum_annealer'"},
    {"template_with_overrides.json", "apps[0].target_fps: unknown field"},
    {"phases_and_template.json",
     "apps[0]: exactly one of 'phases' or 'template'"},
    {"bad_pack_name.json", "pack name must be a non-empty"},
    {"bad_jitter.json", "apps[0].jitter: must be in [0, 1)"},
    {"empty_phases.json", "apps[0].phases: expected a non-empty array"},
    {"non_integer_threads.json", "apps[0].threads: expected an integer"},
    {"root_not_object.json", "expected an object"},
    {"deep_nesting.json", "invalid JSON"},
    {"huge_threads.json", "apps[0].template.threads: expected an integer"},
    {"too_many_steps.json",
     "apps[0].template: cpu_burn_ramp: steps must be in [2, 4096]"},
};

TEST(PackCorpus, EveryMalformedPackFailsTyped) {
  for (const BadPack& bad : kCorpus) {
    SCOPED_TRACE(bad.file);
    const std::string text = read_file(fixture_path(bad.file));
    try {
      parse_pack_text(text, bad.file);
      ADD_FAILURE() << "parsed successfully";
    } catch (const ConfigError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(bad.file), std::string::npos)
          << "error does not name its origin: " << what;
      EXPECT_NE(what.find(bad.expected), std::string::npos)
          << "error does not carry the offending path: " << what;
    }
    // No other exception type is acceptable; anything else escapes the
    // try/catch and fails the test via gtest's unhandled-exception path.
  }
}

TEST(PackCorpus, OversizedDocumentIsRefusedBeforeParsing) {
  std::string text = "{\"pack\": \"big\", \"apps\": [";
  text.append(kMaxPackBytes, ' ');
  try {
    parse_pack_text(text, "big.json");
    ADD_FAILURE() << "parsed successfully";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds"), std::string::npos);
  }
}

TEST(PackCorpus, DirectoryLoadIsAllOrNothing) {
  // The fixtures directory contains only malformed packs: loading it must
  // throw on the first (lexicographic) offender and return nothing.
  EXPECT_THROW(load_pack_dir(MOBITHERM_PACK_FIXTURES_DIR), ConfigError);
  EXPECT_THROW(load_pack_dir("/nonexistent/packs"), ConfigError);
}

TEST(PackCorpus, DuplicatePackNamesAreRejectedBySet) {
  PackSet set;
  set.add(synthetic_stressor_pack());
  EXPECT_THROW(set.add(synthetic_stressor_pack()), ConfigError);
  // The first registration survives the failed second one.
  EXPECT_EQ(set.size(), 1u);
  EXPECT_NE(set.find("synthetic"), nullptr);
}

// --- determinism ------------------------------------------------------------

const char* kMiniPack = R"({
  "pack": "mini",
  "description": "determinism probe",
  "apps": [
    {"name": "probe", "target_fps": 30, "threads": 2,
     "phases": [{"duration_s": 5, "cpu_work_per_frame": 4.0e7,
                 "gpu_work_per_frame": 1.0e7}]}
  ]
})";

TEST(PackDeterminism, ReparseAndReformatPreserveTheContentHash) {
  const WorkloadPack first = parse_pack_text(kMiniPack, "mini.json");
  const WorkloadPack second = parse_pack_text(kMiniPack, "mini.json");
  EXPECT_EQ(first.content_hash, second.content_hash);
  EXPECT_EQ(canonical_pack_json(first), canonical_pack_json(second));

  // Same semantics, different spelling: key order shuffled, whitespace
  // collapsed, defaults written out explicitly.
  const char* reformatted =
      "{\"apps\":[{\"threads\":2,\"phases\":[{\"gpu_work_per_frame\":1.0e7,"
      "\"cpu_work_per_frame\":4.0e7,\"duration_s\":5}],\"name\":\"probe\","
      "\"target_fps\":30,\"loop\":true}],"
      "\"description\":\"determinism probe\",\"pack\":\"mini\"}";
  const WorkloadPack same = parse_pack_text(reformatted, "mini2.json");
  EXPECT_EQ(same.content_hash, first.content_hash);

  // One semantic edit moves the hash.
  std::string edited = kMiniPack;
  const auto pos = edited.find("\"target_fps\": 30");
  ASSERT_NE(pos, std::string::npos);
  edited.replace(pos, 16, "\"target_fps\": 31");
  const WorkloadPack other = parse_pack_text(edited, "mini.json");
  EXPECT_NE(other.content_hash, first.content_hash);
}

TEST(PackDeterminism, ExamplePacksLoadReproducibly) {
  const PackSet a = load_pack_dir(MOBITHERM_EXAMPLE_PACKS_DIR);
  const PackSet b = load_pack_dir(MOBITHERM_EXAMPLE_PACKS_DIR);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a.pack_names(), b.pack_names());
  EXPECT_EQ(a.qualified_app_names(), b.qualified_app_names());
  for (const std::string& name : a.pack_names()) {
    EXPECT_EQ(a.find(name)->content_hash, b.find(name)->content_hash)
        << name;
  }
}

service::ScenarioRegistry registry_with_mini() {
  service::ScenarioRegistry registry =
      service::ScenarioRegistry::standard();
  auto packs = std::make_shared<PackSet>();
  packs->add(parse_pack_text(kMiniPack, "mini.json"));
  registry.attach_packs(std::move(packs));
  return registry;
}

service::SimRequest mini_request() {
  service::SimRequest request;
  request.scenario = "nexus";
  request.app = "mini/probe";
  request.duration_s = 2.0;
  return request;
}

TEST(PackDeterminism, CanonicalKeysAreStableAcrossRegistryRebuilds) {
  const std::string key_a =
      registry_with_mini().canonical_key(mini_request());
  const std::string key_b =
      registry_with_mini().canonical_key(mini_request());
  EXPECT_EQ(key_a, key_b);
  EXPECT_NE(key_a.find(";pack="), std::string::npos) << key_a;

  // Editing the pack changes the key for the *same* request.
  std::string edited = kMiniPack;
  const auto pos = edited.find("4.0e7");
  ASSERT_NE(pos, std::string::npos);
  edited.replace(pos, 5, "4.1e7");
  service::ScenarioRegistry registry =
      service::ScenarioRegistry::standard();
  auto packs = std::make_shared<PackSet>();
  packs->add(parse_pack_text(edited, "mini.json"));
  registry.attach_packs(std::move(packs));
  EXPECT_NE(registry.canonical_key(mini_request()), key_a);
}

std::string run_to_payload(service::SimService& service,
                           const service::SimRequest& request) {
  const service::SubmitOutcome out = service.submit(request, -1.0);
  EXPECT_TRUE(out.accepted) << out.reject_code;
  if (!out.accepted) {
    return "";
  }
  EXPECT_TRUE(service.wait(out.id, 600.0));
  const auto result = service.result(out.id);
  EXPECT_NE(result, nullptr);
  return result == nullptr ? "" : result->payload;
}

TEST(PackDeterminism, CacheRoundTripKeepsPackResultBytes) {
  service::ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 8;
  config.cache_capacity = 8;

  service::SimService service(registry_with_mini(), config);
  const std::string payload = run_to_payload(service, mini_request());
  ASSERT_FALSE(payload.empty());
  EXPECT_EQ(run_to_payload(service, mini_request()), payload);
  EXPECT_EQ(service.stats().cache.hits, 1u);
}

}  // namespace
}  // namespace mobitherm::workload
