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
                           scheme + "', which is not in the header's "
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
  bool grid_cells_agree = true;

  for (std::size_t f = 0; f < paths.size(); ++f) {
    const auto& path = paths[f];
    auto checkpoint = read_sweep_checkpoint(path);
    if (!checkpoint.has_value()) {
      throw std::runtime_error(path + " is missing or empty, not a sweep checkpoint");
    }
    const auto& header = checkpoint->header;
    if (!options.expect_fingerprint.empty() &&
        header.fingerprint != options.expect_fingerprint) {
      throw std::runtime_error("shard " + path + " has spec fingerprint " +
                               header.fingerprint + ", expected " +
                               options.expect_fingerprint);
    }
    if (f == 0) {
      result.header = header;
      result.header.shard = 0;
      result.header.shards = 1;
    } else {
      if (header.fingerprint != result.header.fingerprint) {
        throw std::runtime_error(
            "spec fingerprint mismatch: " + path + " has " + header.fingerprint +
            ", earlier shards have " + result.header.fingerprint +
            " — these checkpoints belong to different sweeps");
      }
      if (header.schemes != result.header.schemes) {
        throw std::runtime_error("scheme-list mismatch between " + path +
                                 " and earlier shards");
      }
      // Same spec, other replication count: the rows agree, the grids differ.
      grid_cells_agree = grid_cells_agree && header.grid_cells == result.header.grid_cells;
      result.header.grid_cells = std::max(result.header.grid_cells, header.grid_cells);
    }
    if (checkpoint->torn_tail) ++result.torn_lines;

    for (auto& [row, line] : checkpoint->rows) {
      auto& cell = cells[row.cell];
      cell.point = row.point_index;
      cell.instance = row.instance_index;
      bool duplicate = false;
      for (const auto& existing : cell.rows) {
        if (existing.scheme != row.scheme) continue;
        if (existing.line == line) {
          ++result.duplicate_rows;
          duplicate = true;
          break;
        }
        throw std::runtime_error(
            "conflicting duplicate cell '" + row.cell + "': scheme '" + row.scheme +
            "' differs between " + paths[existing.source] + " and " + path +
            " — refusing to pick a side");
      }
      if (!duplicate) cell.rows.push_back(RowEntry{row.scheme, std::move(line), f});
    }
  }

  // Completeness is always COMPUTED (hydra_merge --check reports it on
  // partial merges); require_complete only decides whether a hole throws or
  // is reported via MergeResult::complete/incomplete_reason.
  const auto& schemes = result.header.schemes;
  const auto completeness_hole = [&]() -> std::string {
    if (!grid_cells_agree) {
      return "the headers disagree on the grid's cell count (runs with different "
             "replication counts; merge with allow-partial to union anyway)";
    }
    if (cells.size() != result.header.grid_cells) {
      return "cells missing: merged " + std::to_string(cells.size()) + " of the grid's " +
             std::to_string(result.header.grid_cells) + " cells (a shard is missing or "
             "truncated; merge with allow-partial to union anyway)";
    }
    for (const auto& [key, cell] : cells) {
      if (cell.rows.size() != schemes.size()) {
        return "cell '" + key + "' is incomplete: " + std::to_string(cell.rows.size()) +
               " of " + std::to_string(schemes.size()) + " scheme rows "
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
  // instance-minor — exactly the single-process emission order), header
  // scheme order within a cell.
  result.cells.reserve(cells.size());
  for (auto& [key, cell] : cells) {
    std::vector<std::size_t> positions;
    positions.reserve(cell.rows.size());
    for (const auto& row : cell.rows) {
      positions.push_back(scheme_position(schemes, row.scheme, key));
    }
    std::vector<std::size_t> order(cell.rows.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&positions](std::size_t a, std::size_t b) {
      return positions[a] < positions[b];
    });
    MergedCell merged;
    merged.key = key;
    merged.point_index = cell.point;
    merged.instance_index = cell.instance;
    merged.lines.reserve(cell.rows.size());
    for (const std::size_t i : order) merged.lines.push_back(std::move(cell.rows[i].line));
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
  out << format_shard_header(result.header) << '\n';
  for (const auto& cell : result.cells) {
    for (const auto& line : cell.lines) out << line << '\n';
  }
}

}  // namespace hydra::exp
