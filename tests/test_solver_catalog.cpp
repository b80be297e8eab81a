// Pins gp::SolverRegistry::global(), the catalog of GP solver backends that
// production code can select: it ships the default backend alone, and
// GpBackendScope resolution is innermost-wins.  Backends that only tests use
// (the differential suites' interior-point reference, counting delegates)
// are registered by the suites that need them; this one registers none.
// The solver registry has no committed catalog doc, so it does not
// instantiate the typed suite of tests/registry_catalog_suite.h; the
// util::Registry mechanics that suite checks are checked here for this
// registry's own noun and signature.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "gp/solver_registry.h"

namespace gp = hydra::gp;

TEST(SolverRegistry, ShipsOnlyTheDefaultBackend) {
  const auto& registry = gp::SolverRegistry::global();
  EXPECT_EQ(registry.names(), std::vector<std::string>{gp::kDefaultGpBackend});
  EXPECT_EQ(registry.make(gp::kDefaultGpBackend)->name(), gp::kDefaultGpBackend);
  EXPECT_FALSE(registry.description(gp::kDefaultGpBackend).empty());
  EXPECT_THROW(registry.make("ipm/filter"), std::invalid_argument);
}

TEST(SolverRegistry, UnknownNameThrowsListingTheRegisteredOnes) {
  try {
    gp::SolverRegistry::global().make("no-such-entry");
    FAIL() << "unknown name accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown GP solver backend 'no-such-entry'"), std::string::npos)
        << what;
    EXPECT_NE(what.find(gp::kDefaultGpBackend), std::string::npos) << what;
  }
}

TEST(SolverRegistry, AddRejectsEmptyDuplicateAndNullEntries) {
  auto registry = gp::SolverRegistry::global();  // a private copy
  const gp::SolverRegistry::Factory factory = [](const gp::SolveOptions& options) {
    return gp::SolverRegistry::global().make(gp::kDefaultGpBackend, options);
  };
  EXPECT_THROW(registry.add("", "anonymous", factory), std::invalid_argument);
  EXPECT_THROW(registry.add(gp::kDefaultGpBackend, "again", factory),
               std::invalid_argument);
  EXPECT_THROW(registry.add("null", "no factory", nullptr), std::invalid_argument);
  EXPECT_FALSE(registry.contains("null"));
  registry.add("mine", "a private entry", factory);
  EXPECT_NE(registry.make("mine"), nullptr);
  EXPECT_FALSE(gp::SolverRegistry::global().contains("mine"));
}

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
