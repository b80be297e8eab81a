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
  static constexpr const char* kTitle = "# Scheme catalog";
  static constexpr const char* kNoun = "allocation scheme";
  static constexpr const char* kPreamble =
      "# Scheme catalog\n\n"
      "Every allocation scheme registered in `AllocatorRegistry::global()`, in\n"
      "registration order.  The name is the stable identifier accepted by every\n"
      "`--schemes` flag and stamped verbatim on result rows.\n\n"
      "**Generated file — do not edit by hand.**  Regenerate after touching the\n"
      "registry with `HYDRA_UPDATE_CATALOG=1 ./build/test_scheme_catalog`; the\n"
      "ctest suite `test_scheme_catalog` fails whenever this file and the\n"
      "registry disagree.\n\n"
      "| Name | Description |\n|---|---|\n";
  static std::vector<std::string> shipped() {
    return {"hydra",        "hydra/exact-rta", "single-core",     "optimal",
            "contego",      "period-adapt",    "period-adapt/gp", "util/worst-fit"};
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
