// Checkpoint-robustness suite for exp::merge_checkpoints, the shared
// checkpoint reader and parse_jsonl_row: a seeded corpus of mutated shard
// checkpoints (truncated, duplicated, reordered, interleaved, stale
// fingerprints, mid-file garbage, flipped bytes) pinning the merge contract —
// order-insensitive, idempotent, tolerant of a torn FINAL line, and loud
// (std::runtime_error) on conflicting duplicates, corruption, missing
// headers and holes, never silently dropping or inventing cells.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exp/merge.h"
#include "exp/sweep.h"

namespace hexp = hydra::exp;

namespace {

/// Cheap two-scheme grid: 2 points × 2 replications = 4 cells, 8 rows.
hexp::SweepSpec small_spec() {
  hexp::SweepSpec spec;
  spec.schemes = {"hydra", "single-core"};
  hydra::gen::SyntheticConfig config;
  config.num_cores = 2;
  config.min_sec_per_core = 1;
  config.max_sec_per_core = 2;
  spec.add_utilization_grid(config, {0.7, 1.2});
  spec.replications = 2;
  spec.base_seed = 5;
  return spec;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

/// RAII scratch file.
struct TempFile {
  std::string path;
  TempFile(const std::string& name, const std::string& content)
      : path(::testing::TempDir() + "hydra_merge_" + name) {
    write(content);
  }
  void write(const std::string& content) const {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << content;
  }
  ~TempFile() { std::remove(path.c_str()); }
};

/// The reference fixture: the unsharded stream plus two header-stamped shard
/// checkpoints, computed once (evaluation is deterministic, so sharing is
/// safe and keeps the fuzz loop fast).
struct Fixture {
  std::string full;                        // single-process file, header first
  std::vector<std::string> shard_content;  // shard files incl. header line
  std::vector<std::vector<std::string>> shard_lines;

  Fixture() {
    {
      auto spec = small_spec();
      spec.jobs = 1;
      const hexp::Sweep sweep(std::move(spec));
      std::ostringstream os;
      os << hexp::format_shard_header(sweep.shard_header()) << "\n";
      hexp::JsonlSink sink(os);
      sweep.run({&sink});
      full = os.str();
    }
    for (std::size_t s = 0; s < 2; ++s) {
      auto spec = small_spec();
      spec.shard_index = s;
      spec.shard_count = 2;
      const hexp::Sweep sweep(std::move(spec));
      std::ostringstream os;
      os << hexp::format_shard_header(sweep.shard_header()) << "\n";
      hexp::JsonlSink sink(os);
      sweep.run({&sink});
      shard_content.push_back(os.str());
      shard_lines.push_back(split_lines(shard_content.back()));
    }
  }
};

const Fixture& fixture() {
  static const Fixture instance;
  return instance;
}

std::string merge_files(const std::vector<const TempFile*>& files,
                        const hexp::MergeOptions& options = {}) {
  std::vector<std::string> paths;
  for (const auto* file : files) paths.push_back(file->path);
  const auto merged = hexp::merge_checkpoints(paths, options);
  std::ostringstream os;
  hexp::write_merged(merged, os);
  return os.str();
}

}  // namespace

TEST(MergeCheckpoints, TwoShardsReproduceTheUnshardedStream) {
  const auto& fix = fixture();
  const TempFile s0("base0.jsonl", fix.shard_content[0]);
  const TempFile s1("base1.jsonl", fix.shard_content[1]);
  EXPECT_EQ(merge_files({&s0, &s1}), fix.full);
  EXPECT_EQ(merge_files({&s1, &s0}), fix.full);  // argument order irrelevant
}

TEST(MergeCheckpoints, IsIdempotentUnderRepeatedInputsAndSelfMerge) {
  const auto& fix = fixture();
  const TempFile s0("idem0.jsonl", fix.shard_content[0]);
  const TempFile s1("idem1.jsonl", fix.shard_content[1]);

  const auto twice = hexp::merge_checkpoints({s0.path, s1.path, s0.path, s1.path});
  std::ostringstream os;
  hexp::write_merged(twice, os);
  EXPECT_EQ(os.str(), fix.full);
  EXPECT_GT(twice.duplicate_rows, 0u);

  // Merging a merge (its 0/1 header proves it complete) changes nothing
  // either, alone, twice, or together with the shards it came from.
  const TempFile merged("idem_merged.jsonl", fix.full);
  EXPECT_EQ(merge_files({&merged}), fix.full);
  EXPECT_EQ(merge_files({&merged, &merged}), fix.full);
  EXPECT_EQ(merge_files({&s1, &merged, &s0}), fix.full);
}

TEST(MergeCheckpoints, OrderInsensitiveUnderInterleavingAndReordering) {
  const auto& fix = fixture();
  // Pool every row line, deterministically shuffle, and deal them round-robin
  // back into two files under the ORIGINAL headers: cells end up split and
  // interleaved across the files, rows inside a cell arrive in scrambled
  // scheme order.
  std::vector<std::string> pool;
  for (const auto& lines : fix.shard_lines) {
    pool.insert(pool.end(), lines.begin() + 1, lines.end());
  }
  std::mt19937_64 rng(2024);
  for (int round = 0; round < 8; ++round) {
    std::shuffle(pool.begin(), pool.end(), rng);
    std::vector<std::string> a = {fix.shard_lines[0][0]};
    std::vector<std::string> b = {fix.shard_lines[1][0]};
    for (std::size_t i = 0; i < pool.size(); ++i) {
      (i % 2 == 0 ? a : b).push_back(pool[i]);
    }
    const TempFile fa("interleave_a.jsonl", join_lines(a));
    const TempFile fb("interleave_b.jsonl", join_lines(b));
    EXPECT_EQ(merge_files({&fa, &fb}), fix.full) << "round " << round;
  }
}

TEST(MergeCheckpoints, TornTrailingLineIsDiscardedNotTrusted) {
  const auto& fix = fixture();
  // A duplicate of the last row, cut mid-write: nothing is lost, the fragment
  // is dropped and counted.
  const auto& last = fix.shard_lines[0].back();
  const TempFile torn("torn0.jsonl",
                      fix.shard_content[0] + last.substr(0, last.size() / 2));
  const TempFile intact("torn1.jsonl", fix.shard_content[1]);
  const auto merged = hexp::merge_checkpoints({torn.path, intact.path});
  EXPECT_EQ(merged.torn_lines, 1u);
  std::ostringstream os;
  hexp::write_merged(merged, os);
  EXPECT_EQ(os.str(), fix.full);
}

TEST(MergeCheckpoints, TruncatedShardFailsCompletenessButUnionsPartially) {
  const auto& fix = fixture();
  // Chop the final row off shard 0 entirely: its cell now misses a scheme.
  auto lines = fix.shard_lines[0];
  ASSERT_GT(lines.size(), 2u);
  lines.pop_back();
  const TempFile truncated("trunc0.jsonl", join_lines(lines));
  const TempFile intact("trunc1.jsonl", fix.shard_content[1]);

  EXPECT_THROW(hexp::merge_checkpoints({truncated.path, intact.path}),
               std::runtime_error);

  hexp::MergeOptions partial;
  partial.require_complete = false;
  const auto merged_rows = merge_files({&truncated, &intact}, partial);
  // Partial union: every emitted line is a real line of the full stream.
  const auto full_lines = split_lines(fix.full);
  const std::set<std::string> valid(full_lines.begin(), full_lines.end());
  const auto merged_lines = split_lines(merged_rows);
  EXPECT_EQ(merged_lines.size(), full_lines.size() - 1);
  for (const auto& line : merged_lines) {
    EXPECT_TRUE(valid.count(line) > 0) << line;
  }
}

TEST(MergeCheckpoints, StaleFingerprintIsRejected) {
  const auto& fix = fixture();
  auto lines = fix.shard_lines[1];
  const auto marker = lines[0].find("\"fingerprint\":\"");
  ASSERT_NE(marker, std::string::npos);
  const auto start = marker + std::string("\"fingerprint\":\"").size();
  lines[0].replace(start, 16, "deadbeefdeadbeef");
  ASSERT_TRUE(hexp::parse_shard_header(lines[0]).has_value());

  const TempFile fresh("stale0.jsonl", fix.shard_content[0]);
  const TempFile stale("stale1.jsonl", join_lines(lines));
  try {
    hexp::merge_checkpoints({fresh.path, stale.path});
    FAIL() << "should have thrown";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("fingerprint"), std::string::npos);
  }
}

TEST(MergeCheckpoints, ExpectFingerprintOptionIsEnforced) {
  const auto& fix = fixture();
  const TempFile s0("expect0.jsonl", fix.shard_content[0]);
  const TempFile s1("expect1.jsonl", fix.shard_content[1]);
  const auto header = hexp::parse_shard_header(fix.shard_lines[0][0]);
  ASSERT_TRUE(header.has_value());

  hexp::MergeOptions match;
  match.expect_fingerprint = header->fingerprint;
  EXPECT_EQ(merge_files({&s0, &s1}, match), fix.full);

  hexp::MergeOptions mismatch;
  mismatch.expect_fingerprint = "0000000000000000";
  EXPECT_THROW(merge_files({&s0, &s1}, mismatch), std::runtime_error);
}

TEST(MergeCheckpoints, ExpectFingerprintRejectsAHeaderlessInputEvenWhenPartial) {
  // A file without a header has no spec to check, with or without a pin:
  // merging it anyway (as a "partial" result) would pass rows of an
  // unchecked spec.  An empty file is no checkpoint either.
  const auto& fix = fixture();
  const TempFile s0("expect_headed.jsonl", fix.shard_content[0]);
  const TempFile rows("expect_headerless.jsonl", fix.full.substr(fix.full.find('\n') + 1));
  const TempFile empty("expect_empty.jsonl", "");
  const auto header = hexp::parse_shard_header(fix.shard_lines[0][0]);
  ASSERT_TRUE(header.has_value());

  hexp::MergeOptions pinned;
  pinned.require_complete = false;
  pinned.expect_fingerprint = header->fingerprint;
  hexp::MergeOptions unpinned;
  unpinned.require_complete = false;
  for (const auto& options : {pinned, unpinned}) {
    for (const auto* headerless : {&rows, &empty}) {
      try {
        merge_files({&s0, headerless}, options);
        FAIL() << "a headerless input must never be merged";
      } catch (const std::runtime_error& error) {
        EXPECT_NE(std::string(error.what()).find(headerless->path), std::string::npos)
            << error.what();
      }
    }
  }
}

TEST(MergeCheckpoints, ConflictingDuplicateCellIsRejectedLoudly) {
  const auto& fix = fixture();
  // Forge a second opinion about an existing (cell, scheme): same key, a
  // flipped feasible bit.  The merge must refuse to pick a side.
  std::string forged = fix.shard_lines[0][1];
  const auto flip = [&forged](const std::string& from, const std::string& to) {
    const auto at = forged.find(from);
    if (at != std::string::npos) forged.replace(at, from.size(), to);
  };
  if (forged.find("\"feasible\":true") != std::string::npos) {
    flip("\"feasible\":true", "\"feasible\":false");
  } else {
    flip("\"feasible\":false", "\"feasible\":true");
  }
  ASSERT_TRUE(hexp::parse_jsonl_row(forged).has_value());

  const TempFile s0("conflict0.jsonl", fix.shard_content[0]);
  const TempFile s1("conflict1.jsonl", fix.shard_content[1] + forged + "\n");
  try {
    hexp::merge_checkpoints({s0.path, s1.path});
    FAIL() << "should have thrown";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("conflicting duplicate"),
              std::string::npos);
  }
}

TEST(MergeCheckpoints, MidFileGarbageIsCorruptionNotATornTail) {
  const auto& fix = fixture();
  auto lines = fix.shard_lines[0];
  lines.insert(lines.begin() + 2, "GARBAGE NOT JSON");
  const TempFile corrupt("garbage0.jsonl", join_lines(lines));
  const TempFile intact("garbage1.jsonl", fix.shard_content[1]);
  try {
    hexp::merge_checkpoints({corrupt.path, intact.path});
    FAIL() << "should have thrown";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("corrupt"), std::string::npos);
  }
}

TEST(MergeCheckpoints, ConcatenatedShardFilesAreRejected) {
  const auto& fix = fixture();
  const TempFile cat("concat.jsonl", fix.shard_content[0] + fix.shard_content[1]);
  try {
    hexp::merge_checkpoints({cat.path});
    FAIL() << "should have thrown";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("concatenated"), std::string::npos);
  }
}

TEST(MergeCheckpoints, RowsWithoutCellKeysAreRejected) {
  const auto& fix = fixture();
  std::string keyless = fix.shard_lines[0][1];
  const auto cell_start = keyless.find("{\"cell\":\"");
  ASSERT_EQ(cell_start, 0u);
  const auto cell_end = keyless.find('"', std::string("{\"cell\":\"").size());
  keyless = "{\"cell\":\"" + keyless.substr(cell_end);
  ASSERT_TRUE(hexp::parse_jsonl_row(keyless).has_value());

  const TempFile engine_rows("keyless.jsonl", fix.shard_lines[0][0] + "\n" + keyless + "\n");
  hexp::MergeOptions partial;
  partial.require_complete = false;
  EXPECT_THROW(hexp::merge_checkpoints({engine_rows.path}, partial),
               std::runtime_error);
}

TEST(MergeCheckpoints, MissingShardOrMissingFileIsAnError) {
  const auto& fix = fixture();
  const TempFile s0("missing0.jsonl", fix.shard_content[0]);
  try {
    hexp::merge_checkpoints({s0.path});
    FAIL() << "should have thrown";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("cells missing"), std::string::npos)
        << error.what();
  }
  // The lone shard still unions under --allow-partial.
  hexp::MergeOptions partial;
  partial.require_complete = false;
  EXPECT_FALSE(merge_files({&s0}, partial).empty());

  EXPECT_THROW(
      hexp::merge_checkpoints({::testing::TempDir() + "hydra_no_such.jsonl"}),
      std::runtime_error);
  EXPECT_THROW(hexp::merge_checkpoints({}), std::runtime_error);
}

TEST(MergeCheckpoints, DirectoryInputIsAnErrorNamingIt) {
  // A directory opens like a file and then fails its first read; it used to
  // count as an empty headerless shard, which --allow-partial merged anyway.
  const auto& fix = fixture();
  const TempFile s0("dir_input0.jsonl", fix.shard_content[0]);
  const std::string dir = ::testing::TempDir() + "hydra_merge_dir";
  std::filesystem::create_directories(dir);
  hexp::MergeOptions partial;
  partial.require_complete = false;
  for (const auto& options : {hexp::MergeOptions{}, partial}) {
    try {
      hexp::merge_checkpoints({s0.path, dir}, options);
      FAIL() << "should have thrown";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(dir), std::string::npos) << error.what();
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(MergeCheckpoints, SeededFuzzNeverSilentlyCorrupts) {
  // Random checkpoint mutations; two invariants survive every one of them:
  //   * a merge that SUCCEEDS with require_complete reproduces the full
  //     stream byte-for-byte;
  //   * a merge that succeeds in partial mode emits only genuine row lines
  //     (never invented, never mangled bytes);
  //   * everything else throws — never a silent wrong answer.
  const auto& fix = fixture();
  const auto full_lines = split_lines(fix.full);
  const std::set<std::string> valid(full_lines.begin(), full_lines.end());

  std::mt19937_64 rng(424242);
  std::size_t complete_ok = 0, partial_ok = 0, rejected = 0;
  for (int iteration = 0; iteration < 60; ++iteration) {
    auto files = fix.shard_lines;  // headers at index 0 stay put
    const int mutations = 1 + static_cast<int>(rng() % 2);
    for (int m = 0; m < mutations; ++m) {
      auto& target = files[rng() % files.size()];
      const std::size_t rows = target.size() - 1;
      switch (rng() % 6) {
        case 0:  // drop a random row
          if (rows > 0) target.erase(target.begin() + 1 + rng() % rows);
          break;
        case 1:  // duplicate a random row at the end
          if (rows > 0) target.push_back(target[1 + rng() % rows]);
          break;
        case 2: {  // swap two rows
          if (rows > 1) {
            std::swap(target[1 + rng() % rows], target[1 + rng() % rows]);
          }
          break;
        }
        case 3: {  // move a row to the other file
          if (rows > 0) {
            const auto at = target.begin() + 1 + rng() % rows;
            files[(&target == &files[0]) ? 1 : 0].push_back(*at);
            target.erase(at);
          }
          break;
        }
        case 4:  // tear the final line
          if (rows > 0) {
            auto& last = target.back();
            last = last.substr(0, 1 + rng() % last.size());
          }
          break;
        case 5:  // append garbage (a torn tail of nonsense)
          target.push_back("!garbage " + std::to_string(rng()));
          break;
      }
    }
    const TempFile fa("fuzz_a.jsonl", join_lines(files[0]));
    const TempFile fb("fuzz_b.jsonl", join_lines(files[1]));

    try {
      const auto merged = merge_files({&fa, &fb});
      EXPECT_EQ(merged, fix.full) << "complete merge must be exact";
      ++complete_ok;
    } catch (const std::runtime_error&) {
      ++rejected;
      try {
        hexp::MergeOptions partial;
        partial.require_complete = false;
        const auto merged = merge_files({&fa, &fb}, partial);
        for (const auto& line : split_lines(merged)) {
          EXPECT_TRUE(valid.count(line) > 0)
              << "partial merge invented bytes: " << line;
        }
        ++partial_ok;
      } catch (const std::runtime_error&) {
        // Loud rejection is always acceptable.
      }
    }
  }
  // The corpus must exercise both sides of the contract.
  EXPECT_GT(complete_ok, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(partial_ok, 0u);
}

TEST(ParseJsonlRow, NoStrictPrefixOrExtendedLineParses) {
  const auto& fix = fixture();
  const auto line = fix.shard_lines[0][1];
  ASSERT_TRUE(hexp::parse_jsonl_row(line).has_value());
  for (std::size_t cut = 0; cut < line.size(); ++cut) {
    EXPECT_FALSE(hexp::parse_jsonl_row(line.substr(0, cut)).has_value())
        << "prefix of length " << cut << " parsed";
  }
  EXPECT_FALSE(hexp::parse_jsonl_row(line + "x").has_value());
  EXPECT_FALSE(hexp::parse_jsonl_row(" " + line).has_value());
  EXPECT_FALSE(hexp::parse_jsonl_row(line + line).has_value());
}

TEST(ParseJsonlRow, ForeignProducersAreRejected) {
  EXPECT_FALSE(hexp::parse_jsonl_row("").has_value());
  EXPECT_FALSE(hexp::parse_jsonl_row("{}").has_value() &&
               !hexp::parse_jsonl_row("{}")->cell.empty());
  EXPECT_FALSE(hexp::parse_jsonl_row("{\"cell\":\"x\",\"bogus\":1}").has_value());
  EXPECT_FALSE(hexp::parse_jsonl_row("[1,2,3]").has_value());
  EXPECT_FALSE(
      hexp::parse_jsonl_row("{\"cell\":\"x\",\"seed\":1e99}").has_value());
}

TEST(MergeCheckpoints, CompleteFlagDistinguishesFullFromPartialUnions) {
  // The MergeResult::complete / incomplete_reason pair is the library form
  // of hydra_merge's exit-code contract (0 complete, 3 partial-but-
  // consistent): an allow-partial merge must still KNOW whether it happens
  // to be complete, so watcher loops can poll cheaply.
  const auto& fix = fixture();
  const TempFile s0("flag0.jsonl", fix.shard_content[0]);
  const TempFile s1("flag1.jsonl", fix.shard_content[1]);

  hexp::MergeOptions allow_partial;
  allow_partial.require_complete = false;

  // Full shard set: complete even under allow-partial.
  const auto full = hexp::merge_checkpoints({s0.path, s1.path}, allow_partial);
  EXPECT_TRUE(full.complete);
  EXPECT_TRUE(full.incomplete_reason.empty()) << full.incomplete_reason;

  // Missing sibling shard: consistent union, but provably incomplete.
  const auto half = hexp::merge_checkpoints({s0.path}, allow_partial);
  EXPECT_FALSE(half.complete);
  EXPECT_FALSE(half.incomplete_reason.empty());

  // A truncated shard (lost rows, intact header) is incomplete too, and the
  // reason is exactly what require_complete would have thrown.
  auto lines = fix.shard_lines[1];
  lines.pop_back();
  const TempFile cut("flagcut.jsonl", join_lines(lines));
  const auto torn = hexp::merge_checkpoints({s0.path, cut.path}, allow_partial);
  EXPECT_FALSE(torn.complete);
  try {
    hexp::merge_checkpoints({s0.path, cut.path}, hexp::MergeOptions{});
    FAIL() << "require_complete accepted a truncated shard";
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(torn.incomplete_reason, error.what());
  }
}

TEST(MergeCheckpoints, HeaderlessInputsAreNeverComplete) {
  // A bare row stream (no header) proves nothing about its spec, so it is
  // refused outright, even by a partial merge, and the error names it.
  const auto& fix = fixture();
  const TempFile bare("noheader.jsonl", fix.full.substr(fix.full.find('\n') + 1));
  hexp::MergeOptions allow_partial;
  allow_partial.require_complete = false;
  try {
    hexp::merge_checkpoints({bare.path}, allow_partial);
    FAIL() << "a headerless input must be refused";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(bare.path), std::string::npos) << error.what();
  }
}

TEST(MergeCheckpoints, PartialMergeMergedAgainAloneIsStillPartial) {
  // The merged header keeps the whole grid's cell count, so a partial union
  // written out and merged again on its own cannot pass for the full grid.
  const auto& fix = fixture();
  const TempFile s0("repartial0.jsonl", fix.shard_content[0]);
  hexp::MergeOptions allow_partial;
  allow_partial.require_complete = false;
  const auto half = hexp::merge_checkpoints({s0.path}, allow_partial);
  ASSERT_FALSE(half.complete);
  std::ostringstream os;
  hexp::write_merged(half, os);
  const TempFile partial("repartial_out.jsonl", os.str());

  const auto again = hexp::merge_checkpoints({partial.path}, allow_partial);
  EXPECT_FALSE(again.complete);
  EXPECT_NE(again.incomplete_reason.find("cells missing"), std::string::npos)
      << again.incomplete_reason;
  EXPECT_THROW(hexp::merge_checkpoints({partial.path}), std::runtime_error);

  // Adding the missing shard completes it: shard files and merged files
  // combine freely.
  const TempFile s1("repartial1.jsonl", fix.shard_content[1]);
  EXPECT_EQ(merge_files({&partial, &s1}), fix.full);
}

TEST(MergeCheckpoints, HeadersDisagreeingOnGridCellsAreNeverComplete) {
  // The replication count is outside the fingerprint (seeds are positional),
  // so two runs of one spec with different counts share a fingerprint but
  // not a grid: their union is consistent, never complete.
  const auto& fix = fixture();
  auto spec = small_spec();
  spec.replications = 1;
  const hexp::Sweep smaller(std::move(spec));
  std::ostringstream os;
  os << hexp::format_shard_header(smaller.shard_header()) << "\n";
  hexp::JsonlSink sink(os);
  smaller.run({&sink});
  ASSERT_EQ(smaller.shard_header().fingerprint,
            hexp::parse_shard_header(fix.shard_lines[0][0])->fingerprint);

  const TempFile fewer("grid_fewer.jsonl", os.str());
  const TempFile full("grid_full.jsonl", fix.full);
  hexp::MergeOptions allow_partial;
  allow_partial.require_complete = false;
  const auto merged = hexp::merge_checkpoints({full.path, fewer.path}, allow_partial);
  EXPECT_FALSE(merged.complete);
  EXPECT_NE(merged.incomplete_reason.find("grid"), std::string::npos)
      << merged.incomplete_reason;
  EXPECT_GT(merged.duplicate_rows, 0u);
  std::ostringstream rows;
  hexp::write_merged(merged, rows);
  EXPECT_EQ(rows.str(), fix.full);  // every cell of the smaller grid is a duplicate
}

namespace {

/// Applies one random byte-level mutation to a checkpoint file's text.
std::string mutate_bytes(std::string text, std::mt19937_64& rng) {
  const auto lines = split_lines(text);
  switch (rng() % 6) {
    case 0: {  // flip one byte to a random value
      if (!text.empty()) text[rng() % text.size()] = static_cast<char>(rng() % 256);
      break;
    }
    case 1: {  // flip one byte to a JSON-significant character
      static const char kSignificant[] = "{}[]\":,\\\n0123456789.-eE x";
      if (!text.empty()) {
        text[rng() % text.size()] = kSignificant[rng() % (sizeof(kSignificant) - 1)];
      }
      break;
    }
    case 2:  // truncate anywhere
      text.resize(text.empty() ? 0 : rng() % text.size());
      break;
    case 3: {  // insert a foreign line
      auto copy = lines;
      const std::size_t at = rng() % (copy.size() + 1);
      const char* kForeign[] = {"", "{}", "{\"cell\":\"p0:x:i0\"}", "garbage", "[1,2]"};
      copy.insert(copy.begin() + static_cast<std::ptrdiff_t>(at), kForeign[rng() % 5]);
      text = join_lines(copy);
      break;
    }
    case 4: {  // duplicate a line, the header included, somewhere
      auto copy = lines;
      if (copy.empty()) break;
      const auto line = copy[rng() % copy.size()];
      copy.insert(copy.begin() + static_cast<std::ptrdiff_t>(rng() % (copy.size() + 1)), line);
      text = join_lines(copy);
      break;
    }
    case 5: {  // swap two adjacent bytes
      if (text.size() > 1) {
        const std::size_t at = rng() % (text.size() - 1);
        std::swap(text[at], text[at + 1]);
      }
      break;
    }
  }
  return text;
}

}  // namespace

TEST(CheckpointReader, SeededByteFuzzEitherNamesTheFileOrRoundTrips) {
  // Every mutated checkpoint has one of two outcomes through the shared
  // reader: a runtime_error that names the file, or a header and rows whose
  // every line re-serializes to exactly its own bytes.  Nothing else — no
  // crash, no other exception, no row the sweep could not have written.
  const auto& fix = fixture();
  const TempFile file("fuzz_bytes.jsonl", "");
  std::mt19937_64 rng(20180131);
  std::size_t refused = 0, read = 0, torn = 0;
  for (int iteration = 0; iteration < 600; ++iteration) {
    std::string text = fix.shard_content[rng() % 2];
    const int mutations = 1 + static_cast<int>(rng() % 3);
    for (int m = 0; m < mutations; ++m) text = mutate_bytes(std::move(text), rng);
    file.write(text);

    // The header parser alone never accepts a line it would not write.
    const auto first = text.substr(0, text.find('\n'));
    if (const auto header = hexp::parse_shard_header(first)) {
      EXPECT_EQ(hexp::format_shard_header(*header), first);
    }

    std::optional<hexp::SweepCheckpoint> checkpoint;
    try {
      checkpoint = hexp::read_sweep_checkpoint(file.path);
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(file.path), std::string::npos)
          << error.what();
      ++refused;
      continue;
    }
    if (!checkpoint.has_value()) {
      EXPECT_TRUE(text.empty()) << "only an empty file reads as no checkpoint";
      continue;
    }
    ++read;
    if (checkpoint->torn_tail) ++torn;
    EXPECT_EQ(hexp::format_shard_header(checkpoint->header), first);
    for (const auto& [row, line] : checkpoint->rows) {
      std::ostringstream os;
      hexp::JsonlSink(os).row(row);
      EXPECT_EQ(os.str(), line + "\n");
      EXPECT_FALSE(row.cell.empty());
    }
  }
  // The corpus must exercise every outcome.
  EXPECT_GT(refused, 0u);
  EXPECT_GT(read, 0u);
  EXPECT_GT(torn, 0u);
}

TEST(CheckpointReader, MissingAndEmptyFilesAreNoCheckpoint) {
  EXPECT_FALSE(hexp::read_sweep_checkpoint(::testing::TempDir() + "hydra_no_such.jsonl")
                   .has_value());
  const TempFile empty("reader_empty.jsonl", "");
  EXPECT_FALSE(hexp::read_sweep_checkpoint(empty.path).has_value());
  const TempFile header_only("reader_header.jsonl", fixture().shard_lines[0][0] + "\n");
  const auto checkpoint = hexp::read_sweep_checkpoint(header_only.path);
  ASSERT_TRUE(checkpoint.has_value());
  EXPECT_TRUE(checkpoint->rows.empty());
  EXPECT_FALSE(checkpoint->torn_tail);
}
