// Keeps docs/controller-catalog.md in sync with
// sim::ControllerRegistry::global(), checks the registry's mechanics through
// the shared typed suite in tests/registry_catalog_suite.h, and pins the
// controller's own rules: config validation at make() and policy-name
// resolution.  After an intentional registry change:
//
//     HYDRA_UPDATE_CATALOG=1 ./build/test_controller_catalog
//
// rewrites the file in place (review the diff like any other code change).
#include <stdexcept>
#include <string>
#include <vector>

#include "registry_catalog_suite.h"
#include "sim/controller.h"

namespace sim = hydra::sim;

namespace {

struct Controllers {
  using Registry = sim::ControllerRegistry;
  static constexpr const char* kLabel = "controller";
  static constexpr const char* kSuite = "test_controller_catalog";
  static constexpr const char* kDoc = "docs/controller-catalog.md";
  static constexpr const char* kTitle = "# Controller policy catalog";
  static constexpr const char* kNoun = "controller policy";
  static constexpr const char* kPreamble =
      "# Controller policy catalog\n"
      "\n"
      "Generated from `sim::ControllerRegistry::global()` by\n"
      "`HYDRA_UPDATE_CATALOG=1 ./build/test_controller_catalog` — regenerate\n"
      "after registering or re-describing a policy (`test_controller_catalog`\n"
      "fails when this file is stale).\n"
      "\n"
      "| policy | description |\n"
      "|---|---|\n";
  static std::vector<std::string> shipped() {
    return {"hysteresis", "hysteresis/nlevel", "never-switch", "boost"};
  }
  static Registry::Factory factory() {
    return [](const sim::ModeControllerConfig& config, const sim::PolicyInit& init) {
      return Registry::global().make(sim::kDefaultControllerPolicy, config, init);
    };
  }
  static auto make(const Registry& registry, const std::string& name) {
    return registry.make(name, sim::ModeControllerConfig{}, sim::PolicyInit{4, 1000});
  }
};

}  // namespace

INSTANTIATE_TYPED_TEST_SUITE_P(Controller, RegistryCatalog, Controllers);

TEST(ControllerRegistry, MakeValidatesTheConfig) {
  const auto& registry = sim::ControllerRegistry::global();
  sim::ModeControllerConfig bad;
  bad.tighten_threshold = 2.0;  // the idle fraction is a ratio — can never fire
  EXPECT_THROW(registry.make("hysteresis", bad, sim::PolicyInit{1, 1}),
               std::invalid_argument);
  bad = {};
  bad.relax_threshold = -0.25;
  EXPECT_THROW(registry.make("boost", bad, sim::PolicyInit{1, 1}),
               std::invalid_argument);
}

TEST(ControllerRegistry, EmptyPolicyResolvesToTheDefault) {
  EXPECT_EQ(sim::resolve_policy(""), sim::kDefaultControllerPolicy);
  EXPECT_EQ(sim::resolve_policy("boost"), "boost");
}

TEST(ControllerRegistry, NeverSwitchIsTheOnlyInertPolicy) {
  for (const auto& name : sim::ControllerRegistry::global().names()) {
    EXPECT_EQ(sim::is_inert_policy(name), name == "never-switch") << name;
  }
  EXPECT_FALSE(sim::is_inert_policy(""));  // the default, hysteresis
}
