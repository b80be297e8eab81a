// Keeps docs/solver-catalog.md in sync with gp::SolverRegistry::global(),
// checks the registry's mechanics through the shared typed suite in
// tests/registry_catalog_suite.h, and pins GpBackendScope resolution.  After
// an intentional registry change:
//
//     HYDRA_UPDATE_CATALOG=1 ./build/test_solver_catalog
//
// rewrites the file in place (review the diff like any other code change).
#include <string>
#include <vector>

#include "gp/solver_registry.h"
#include "registry_catalog_suite.h"

namespace gp = hydra::gp;

namespace {

struct Solvers {
  using Registry = gp::SolverRegistry;
  static constexpr const char* kLabel = "solver";
  static constexpr const char* kSuite = "test_solver_catalog";
  static constexpr const char* kDoc = "docs/solver-catalog.md";
  static constexpr const char* kFlag = "--solver-catalog-out";
  static constexpr const char* kTitle = "# GP solver catalog";
  static constexpr const char* kNoun = "GP solver backend";
  static constexpr const char* kPreamble = gp::kSolverCatalogPreamble;
  static std::vector<std::string> shipped() {
    return {"scp/barrier", "ipm/filter"};
  }
  static Registry::Factory factory() {
    return [](const gp::SolveOptions& options) {
      return Registry::global().make(gp::kDefaultGpBackend, options);
    };
  }
  static auto make(const Registry& registry, const std::string& name) {
    return registry.make(name);
  }
};

}  // namespace

INSTANTIATE_TYPED_TEST_SUITE_P(Solver, RegistryCatalog, Solvers);

TEST(SolverRegistry, ScopeSelectsTheBackendInnermostWins) {
  // innermost scope > default; "" re-selects the default.
  EXPECT_EQ(gp::resolve_gp_backend(""), gp::kDefaultGpBackend);
  EXPECT_EQ(gp::resolve_gp_backend("ipm/filter"), "ipm/filter");
  {
    const gp::GpBackendScope outer("ipm/filter");
    EXPECT_EQ(gp::resolve_gp_backend(""), "ipm/filter");
    {
      const gp::GpBackendScope inner("scp/barrier");
      EXPECT_EQ(gp::resolve_gp_backend(""), "scp/barrier");
    }
    EXPECT_EQ(gp::resolve_gp_backend(""), "ipm/filter");
    {
      const gp::GpBackendScope blank("");
      EXPECT_EQ(gp::resolve_gp_backend(""), gp::kDefaultGpBackend);
    }
  }
  EXPECT_EQ(gp::GpBackendScope::current(), nullptr);
}
