#include "exp/merge.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <stdexcept>

namespace hydra::exp {

namespace {

/// One accepted row: its raw bytes plus just enough parsed context to key,
/// order, and diagnose it.
struct RowEntry {
  std::string scheme;
  std::string line;
  std::size_t source = 0;  ///< index into the input path list
};

struct CellAcc {
  std::vector<RowEntry> rows;  ///< unique per scheme, encounter order
  std::size_t point = 0;
  std::size_t instance = 0;
};

std::size_t scheme_position(const std::vector<std::string>& schemes,
                            const std::string& scheme, const std::string& cell) {
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    if (schemes[i] == scheme) return i;
  }
  throw std::runtime_error("merged cell '" + cell + "' has a row for scheme '" +
                           scheme + "', which is not in the shard header's "
                           "scheme list — the checkpoints disagree on the spec");
}

}  // namespace

MergeResult merge_checkpoints(const std::vector<std::string>& paths,
                              const MergeOptions& options) {
  if (paths.empty()) {
    throw std::runtime_error("merge needs at least one shard checkpoint");
  }

  MergeResult result;
  result.shard_files = paths.size();

  std::map<std::string, CellAcc> cells;
  // shard index -> declared cell count, from the headers.
  std::map<std::size_t, std::size_t> declared;
  bool all_have_headers = true;
  std::string headerless_path;

  for (std::size_t f = 0; f < paths.size(); ++f) {
    const auto& path = paths[f];
    auto read = read_checkpoint_lines(path);
    if (!read.has_value()) throw std::runtime_error("no such shard checkpoint: " + path);
    const auto lines = std::move(*read);

    std::size_t start = 0;
    auto header = lines.empty() ? std::nullopt : parse_shard_header(lines[0]);
    if (header.has_value()) {
      start = 1;
      if (!options.expect_fingerprint.empty() &&
          header->fingerprint != options.expect_fingerprint) {
        throw std::runtime_error("shard " + path + " has spec fingerprint " +
                                 header->fingerprint + ", expected " +
                                 options.expect_fingerprint);
      }
      if (result.header.has_value()) {
        if (result.header->fingerprint != header->fingerprint) {
          throw std::runtime_error(
              "spec fingerprint mismatch: " + path + " has " +
              header->fingerprint + ", earlier shards have " +
              result.header->fingerprint + " — these checkpoints belong to "
              "different sweeps");
        }
        if (result.header->shards != header->shards) {
          throw std::runtime_error(
              "shard-count mismatch: " + path + " says " +
              std::to_string(header->shards) + " shards, earlier shards say " +
              std::to_string(result.header->shards));
        }
        if (result.header->schemes != header->schemes) {
          throw std::runtime_error("scheme-list mismatch between " + path +
                                   " and earlier shards");
        }
      }
      const auto [it, inserted] = declared.emplace(header->shard, header->cells);
      if (!inserted && it->second != header->cells) {
        throw std::runtime_error(
            "shard " + std::to_string(header->shard) + " appears twice with "
            "different declared cell counts (" + std::to_string(it->second) +
            " vs " + std::to_string(header->cells) + ")");
      }
      if (!result.header.has_value()) result.header = std::move(*header);
    } else {
      if (!options.expect_fingerprint.empty()) {
        // Its rows would join the merge with their spec never checked.
        throw std::runtime_error(path + " has no shard header, so its spec "
                                 "fingerprint cannot be checked against " +
                                 options.expect_fingerprint);
      }
      all_have_headers = false;
      if (headerless_path.empty()) headerless_path = path;
    }

    for (std::size_t n = start; n < lines.size(); ++n) {
      const auto& line = lines[n];
      const bool last = n + 1 == lines.size();
      if (line.empty() && last) break;  // stray blank tail
      auto row = parse_jsonl_row(line);
      if (!row.has_value()) {
        if (parse_shard_header(line).has_value()) {
          throw std::runtime_error(
              path + ":" + std::to_string(n + 1) + ": shard header in the "
              "middle of a checkpoint — files must be merged, not concatenated");
        }
        if (last) {
          // The write that was in flight when the shard died.
          ++result.torn_lines;
          break;
        }
        throw std::runtime_error(
            path + ":" + std::to_string(n + 1) + ": corrupt checkpoint line "
            "(only a torn FINAL line is tolerated)");
      }
      if (row->cell.empty()) {
        throw std::runtime_error(
            path + ":" + std::to_string(n + 1) + ": row carries no sweep cell "
            "key; only sweep checkpoints can be merged");
      }
      auto& cell = cells[row->cell];
      cell.point = row->point_index;
      cell.instance = row->instance_index;
      bool duplicate = false;
      for (const auto& existing : cell.rows) {
        if (existing.scheme != row->scheme) continue;
        if (existing.line == line) {
          ++result.duplicate_rows;
          duplicate = true;
          break;
        }
        throw std::runtime_error(
            "conflicting duplicate cell '" + row->cell + "': scheme '" +
            row->scheme + "' differs between " + paths[existing.source] +
            " and " + path + " — refusing to pick a side");
      }
      if (!duplicate) cell.rows.push_back(RowEntry{row->scheme, line, f});
    }
  }

  // Completeness is always COMPUTED (hydra_merge --check reports it on
  // partial merges); require_complete only decides whether a hole throws or
  // is reported via MergeResult::complete/incomplete_reason.
  const auto completeness_hole = [&]() -> std::string {
    if (!all_have_headers) {
      return "cannot verify completeness: " + headerless_path + " has no shard "
             "header (merge with allow-partial to union anyway)";
    }
    const std::size_t shards = result.header->shards;
    std::size_t declared_cells = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      const auto it = declared.find(s);
      if (it == declared.end()) {
        return "missing shard " + std::to_string(s) + "/" +
               std::to_string(shards) +
               " (merge with allow-partial to union anyway)";
      }
      declared_cells += it->second;
    }
    if (declared_cells != cells.size()) {
      return "shard headers declare " + std::to_string(declared_cells) +
             " cells but " + std::to_string(cells.size()) + " distinct cells "
             "were merged — a shard checkpoint is truncated or foreign";
    }
    for (const auto& [key, cell] : cells) {
      if (cell.rows.size() != result.header->schemes.size()) {
        return "cell '" + key + "' is incomplete: " +
               std::to_string(cell.rows.size()) + " of " +
               std::to_string(result.header->schemes.size()) + " scheme rows "
               "(torn shard? merge with allow-partial to keep it for --resume)";
      }
    }
    return "";
  };
  result.incomplete_reason = completeness_hole();
  result.complete = result.incomplete_reason.empty();
  if (options.require_complete && !result.complete) {
    throw std::runtime_error(result.incomplete_reason);
  }

  // Canonical output order: grid order across cells (point-major,
  // instance-minor — exactly the single-process emission order), shard-header
  // scheme order within a cell.  Without a header the within-cell encounter
  // order is preserved.
  result.cells.reserve(cells.size());
  for (auto& [key, cell] : cells) {
    if (result.header.has_value()) {
      const auto& schemes = result.header->schemes;
      std::vector<std::size_t> positions;
      positions.reserve(cell.rows.size());
      for (const auto& row : cell.rows) {
        positions.push_back(scheme_position(schemes, row.scheme, key));
      }
      std::vector<std::size_t> order(cell.rows.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::stable_sort(order.begin(), order.end(),
                       [&positions](std::size_t a, std::size_t b) {
                         return positions[a] < positions[b];
                       });
      std::vector<RowEntry> sorted;
      sorted.reserve(cell.rows.size());
      for (const std::size_t i : order) sorted.push_back(std::move(cell.rows[i]));
      cell.rows = std::move(sorted);
    }
    MergedCell merged;
    merged.key = key;
    merged.point_index = cell.point;
    merged.instance_index = cell.instance;
    merged.lines.reserve(cell.rows.size());
    for (auto& row : cell.rows) merged.lines.push_back(std::move(row.line));
    result.rows += merged.lines.size();
    result.cells.push_back(std::move(merged));
  }
  std::stable_sort(result.cells.begin(), result.cells.end(),
                   [](const MergedCell& a, const MergedCell& b) {
                     if (a.point_index != b.point_index) {
                       return a.point_index < b.point_index;
                     }
                     if (a.instance_index != b.instance_index) {
                       return a.instance_index < b.instance_index;
                     }
                     return a.key < b.key;
                   });
  return result;
}

void write_merged(const MergeResult& result, std::ostream& out) {
  for (const auto& cell : result.cells) {
    for (const auto& line : cell.lines) out << line << '\n';
  }
}

}  // namespace hydra::exp
