// One typed gtest suite for the three name registries — allocation schemes,
// GP solver backends and runtime controller policies.  They share one
// util::Registry template, so they share its mechanics checks and the
// generated-catalog sync check; each registry's ctest executable
// (test_scheme_catalog, test_solver_catalog, test_controller_catalog)
// instantiates the suite with a traits struct and adds its own rules.
//
// A traits struct provides:
//   Registry            the util::Registry alias
//   kLabel              short name used in messages
//   kSuite              the ctest executable that instantiates it
//   kDoc                committed catalog path, relative to the source tree
//   kFlag               the bench_table1_catalog flag that writes kDoc
//   kTitle              the catalog's first line
//   kNoun               the noun in the registry's unknown-name error
//   kPreamble           the catalog preamble passed to catalog_markdown
//   shipped()           the registered names, in order
//   factory()           a valid factory for private add() checks
//   make(registry, n)   registry.make(n, <valid args>)
//
// The committed catalogs are generated; CommittedDocMatchesTheLiveRegistry
// fails whenever a registry gains, loses or re-describes an entry without its
// doc being regenerated.  After an intentional registry change,
// HYDRA_UPDATE_CATALOG=1 ./build/<kSuite> rewrites kDoc in place (review the
// diff like any other code change); bench_table1_catalog <kFlag> <kDoc>
// writes the same bytes.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/registry.h"

inline std::string read_catalog_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

template <typename T>
class RegistryCatalog : public ::testing::Test {};

TYPED_TEST_SUITE_P(RegistryCatalog);

TYPED_TEST_P(RegistryCatalog, ShipsTheDocumentedNamesInOrder) {
  EXPECT_EQ(TypeParam::Registry::global().names(), TypeParam::shipped());
}

TYPED_TEST_P(RegistryCatalog, EveryProductStampsItsRegisteredName) {
  const auto& registry = TypeParam::Registry::global();
  for (const auto& name : registry.names()) {
    EXPECT_EQ(TypeParam::make(registry, name)->name(), name);
    EXPECT_FALSE(registry.description(name).empty()) << name;
  }
}

TYPED_TEST_P(RegistryCatalog, AddRejectsEmptyDuplicateAndNullEntries) {
  auto registry = TypeParam::Registry::global();  // a private copy
  const auto factory = TypeParam::factory();
  EXPECT_THROW(registry.add("", "anonymous", factory), std::invalid_argument);
  EXPECT_THROW(registry.add(registry.names().front(), "again", factory),
               std::invalid_argument);
  EXPECT_THROW(registry.add("null", "no factory", nullptr), std::invalid_argument);
  EXPECT_FALSE(registry.contains("null"));
  registry.add("mine", "a private entry", factory);
  EXPECT_TRUE(registry.contains("mine"));
  EXPECT_NE(TypeParam::make(registry, "mine"), nullptr);
  EXPECT_FALSE(TypeParam::Registry::global().contains("mine"));
}

TYPED_TEST_P(RegistryCatalog, UnknownNameThrowsListingTheRegisteredOnes) {
  const auto& registry = TypeParam::Registry::global();
  EXPECT_FALSE(registry.contains("no-such-entry"));
  try {
    TypeParam::make(registry, "no-such-entry");
    FAIL() << "unknown name accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::string("unknown ") + TypeParam::kNoun + " 'no-such-entry'"),
              std::string::npos)
        << what;
    for (const auto& name : registry.names()) {
      EXPECT_NE(what.find(name), std::string::npos) << name;
    }
  }
}

TYPED_TEST_P(RegistryCatalog, MarkdownContainsEveryEntry) {
  const auto& registry = TypeParam::Registry::global();
  const std::string markdown =
      hydra::util::catalog_markdown(registry, TypeParam::kPreamble);
  EXPECT_EQ(markdown.rfind(TypeParam::kTitle, 0), 0u);
  for (const auto& name : registry.names()) {
    EXPECT_NE(markdown.find("| `" + name + "` | " + registry.description(name) + " |\n"),
              std::string::npos)
        << name;
  }
}

TYPED_TEST_P(RegistryCatalog, CommittedDocMatchesTheLiveRegistry) {
  const std::string path = std::string(HYDRA_SOURCE_DIR) + "/" + TypeParam::kDoc;
  const std::string expected =
      hydra::util::catalog_markdown(TypeParam::Registry::global(), TypeParam::kPreamble);

  if (std::getenv("HYDRA_UPDATE_CATALOG") != nullptr) {
    std::ofstream out(path);
    out << expected;
    GTEST_SKIP() << TypeParam::kLabel << " catalog regenerated at " << path;
  }

  const std::string committed = read_catalog_file(path);
  ASSERT_FALSE(committed.empty()) << "missing " << path << " — generate it with "
                                  << "./build/bench_table1_catalog " << TypeParam::kFlag
                                  << " " << TypeParam::kDoc;
  EXPECT_EQ(committed, expected)
      << TypeParam::kDoc << " is out of sync with its registry; regenerate with "
      << "HYDRA_UPDATE_CATALOG=1 ./build/" << TypeParam::kSuite << " or "
      << "./build/bench_table1_catalog " << TypeParam::kFlag << " " << TypeParam::kDoc;
}

REGISTER_TYPED_TEST_SUITE_P(RegistryCatalog, ShipsTheDocumentedNamesInOrder,
                            EveryProductStampsItsRegisteredName,
                            AddRejectsEmptyDuplicateAndNullEntries,
                            UnknownNameThrowsListingTheRegisteredOnes,
                            MarkdownContainsEveryEntry,
                            CommittedDocMatchesTheLiveRegistry);
