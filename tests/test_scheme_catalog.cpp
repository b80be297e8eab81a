// Keeps docs/scheme-catalog.md in sync with core::AllocatorRegistry::global()
// and checks the registry's mechanics through the shared typed suite in
// tests/registry_catalog_suite.h.  After an intentional registry change:
//
//     HYDRA_UPDATE_CATALOG=1 ./build/test_scheme_catalog
//
// rewrites the file in place (review the diff like any other code change).
#include <memory>
#include <string>
#include <vector>

#include "core/hydra.h"
#include "core/registry.h"
#include "registry_catalog_suite.h"

namespace core = hydra::core;

namespace {

struct Schemes {
  using Registry = core::AllocatorRegistry;
  static constexpr const char* kLabel = "scheme";
  static constexpr const char* kSuite = "test_scheme_catalog";
  static constexpr const char* kDoc = "docs/scheme-catalog.md";
  static constexpr const char* kFlag = "--catalog-out";
  static constexpr const char* kTitle = "# Scheme catalog";
  static constexpr const char* kNoun = "allocation scheme";
  static constexpr const char* kPreamble = core::kSchemeCatalogPreamble;
  static std::vector<std::string> shipped() {
    return {"hydra", "hydra/gp",
            "hydra/exact-rta", "hydra/first-fit",
            "hydra/least-loaded", "hydra/worst-tightness",
            "hydra/tie=lowest-index", "single-core",
            "single-core/joint", "optimal",
            "optimal/sum-surrogate", "contego",
            "contego/no-adapt", "period-adapt",
            "period-adapt/gp", "util/worst-fit",
            "util/best-fit"};
  }
  static Registry::Factory factory() {
    return [] { return std::make_unique<core::HydraAllocator>(); };
  }
  static auto make(const Registry& registry, const std::string& name) {
    return registry.make(name);
  }
};

}  // namespace

INSTANTIATE_TYPED_TEST_SUITE_P(Scheme, RegistryCatalog, Schemes);
