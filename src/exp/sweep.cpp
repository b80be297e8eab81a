#include "exp/sweep.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/registry.h"
#include "gp/solver_registry.h"

namespace hydra::exp {

void SweepSpec::add_utilization_grid(const gen::SyntheticConfig& config,
                                     const std::vector<double>& utilizations) {
  for (const double u : utilizations) {
    SweepPoint point;
    point.synthetic = config;
    point.total_utilization = u;
    points.push_back(std::move(point));
  }
}

void SweepSpec::add_corpus_point(const std::string& path_or_glob, std::string label) {
  SweepPoint point;
  point.files = expand_workload_files(path_or_glob);
  point.label = label.empty() ? path_or_glob : std::move(label);
  points.push_back(std::move(point));
}

std::vector<double> utilization_axis(std::size_t num_cores, std::size_t steps,
                                     double increment) {
  std::vector<double> axis;
  axis.reserve(steps);
  for (std::size_t step = 1; step <= steps; ++step) {
    axis.push_back(increment * static_cast<double>(step) * static_cast<double>(num_cores));
  }
  return axis;
}

std::uint64_t sweep_point_seed(std::uint64_t base_seed, std::size_t point_index) {
  // A distinct splitmix64 domain (the XOR constant) keeps a sweep's point-p
  // stream disjoint from a plain BatchSpec run using the same base seed.
  return instance_seed(base_seed ^ 0xC2B2AE3D27D4EB4FULL, point_index);
}

std::string sweep_cell_key(std::size_t point_index, const std::string& point_label,
                           std::size_t instance_index) {
  return "p" + std::to_string(point_index) + ":" + point_label + ":i" +
         std::to_string(instance_index);
}

namespace {

/// FNV-1a over a byte string — the shard partition and the spec fingerprint
/// both need a hash that is bit-stable across platforms and standard-library
/// versions, which rules out std::hash.
std::uint64_t fnv1a64(const char* data, std::size_t size,
                      std::uint64_t seed = 1469598103934665603ULL) {
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::uint64_t fnv1a64(const std::string& bytes,
                      std::uint64_t seed = 1469598103934665603ULL) {
  return fnv1a64(bytes.data(), bytes.size(), seed);
}

std::string hex64(std::uint64_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[value & 0xF];
    value >>= 4;
  }
  return out;
}

}  // namespace

std::size_t sweep_shard_of(const std::string& cell_key, std::size_t shard_count) {
  if (shard_count <= 1) return 0;
  return static_cast<std::size_t>(fnv1a64(cell_key) % shard_count);
}

ShardRef parse_shard_spec(const std::string& text) {
  const auto fail = [&text]() -> ShardRef {
    throw std::invalid_argument("--shard expects 'i/N' with 0 <= i < N, got '" +
                                text + "'");
  };
  const auto slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= text.size()) {
    return fail();
  }
  ShardRef shard;
  const char* begin = text.data();
  auto result = std::from_chars(begin, begin + slash, shard.index);
  if (result.ec != std::errc() || result.ptr != begin + slash) return fail();
  result = std::from_chars(begin + slash + 1, begin + text.size(), shard.count);
  if (result.ec != std::errc() || result.ptr != begin + text.size()) return fail();
  if (shard.count == 0 || shard.index >= shard.count) return fail();
  return shard;
}

std::string sweep_fingerprint(const SweepSpec& spec) {
  // Canonical serialization of the row-byte-determining spec fields.  Fields
  // are length-delimited by '\x1f' separators (never produced by
  // format_double or registry names) so adjacent values cannot alias.
  std::string canon = kRowSemanticsVersion;
  const auto put = [&canon](const std::string& field) {
    canon += '\x1f';
    canon += field;
  };
  for (const auto& scheme : spec.schemes) put("s=" + scheme);
  put("seed=" + std::to_string(spec.base_seed));
  put("attempts=" + std::to_string(spec.max_attempts));
  // Constant, but still hashed: existing checkpoints' fingerprints include it.
  put("budget=" + std::to_string(core::kDefaultOptimalBudget));
  // The resolved backend name, so "" and an explicit "scp/barrier" agree —
  // they run the same arithmetic — while any other backend disagrees loudly.
  // Resolved against the registry DEFAULT, never the thread-local scope: the
  // fingerprint must stay a pure function of the spec.
  put("gp-backend=" +
      (spec.gp_backend.empty() ? std::string(gp::kDefaultGpBackend) : spec.gp_backend));
  // Name AND identity: two metric families sharing names but baked with
  // different parameters (trials, horizons, thresholds) yield different row
  // bytes, and only the identity string reveals that.
  for (const auto& metric : spec.metrics) {
    put("metric=" + metric.name + "#" + metric.identity);
  }
  for (const auto& point : spec.points) {
    put("point=" + point.label);
    if (point.instance.has_value()) {
      // The full task parameters, not just counts: editing one WCET between
      // shard runs must change the fingerprint, or the merge would silently
      // mix rows computed from different instances.
      put("preset-cores=" + std::to_string(point.instance->num_cores));
      for (const auto& task : point.instance->rt_tasks) {
        put("rt-task=" + task.name + "," + format_double(task.wcet) + "," +
            format_double(task.period) + "," + format_double(task.deadline));
      }
      for (const auto& task : point.instance->security_tasks) {
        put("sec-task=" + task.name + "," + format_double(task.wcet) + "," +
            format_double(task.period_des) + "," + format_double(task.period_max) +
            "," + format_double(task.weight));
      }
      continue;
    }
    if (!point.files.empty()) {
      // Path AND content: a workload file edited between shard runs yields
      // different rows for the same cell keys, which only the bytes reveal.
      // An unreadable file hashes as such — shards on a machine missing the
      // corpus then disagree loudly instead of merging garbage.
      for (const auto& file : point.files) {
        put("file=" + file);
        std::ifstream in(file, std::ios::binary);
        if (!in) {
          put("file-content=unreadable");
          continue;
        }
        std::uint64_t content_hash = 1469598103934665603ULL;
        char buffer[4096];
        while (in.read(buffer, sizeof(buffer)) || in.gcount() > 0) {
          content_hash =
              fnv1a64(buffer, static_cast<std::size_t>(in.gcount()), content_hash);
        }
        put("file-content=" + hex64(content_hash));
      }
      continue;
    }
    const auto& synth = point.synthetic;
    put("u=" + format_double(point.total_utilization));
    put("m=" + std::to_string(synth.num_cores));
    put("rt=" + std::to_string(synth.min_rt_per_core) + ".." +
        std::to_string(synth.max_rt_per_core));
    put("sec=" + std::to_string(synth.min_sec_per_core) + ".." +
        std::to_string(synth.max_sec_per_core));
    put("rtT=" + format_double(synth.rt_period_lo) + ".." +
        format_double(synth.rt_period_hi));
    put("secT=" + format_double(synth.sec_period_des_lo) + ".." +
        format_double(synth.sec_period_des_hi));
    put("tmaxf=" + format_double(synth.sec_period_max_factor));
    put("ratio=" + format_double(synth.sec_util_ratio));
    put("taskcap=" + format_double(synth.max_task_utilization));
  }
  return hex64(fnv1a64(canon));
}

std::string format_shard_header(const SweepShardHeader& header) {
  std::string out = "{\"hydra_sweep_shard\":{\"fingerprint\":\"" +
                    json_escape(header.fingerprint) +
                    "\",\"shard\":" + std::to_string(header.shard) +
                    ",\"shards\":" + std::to_string(header.shards) +
                    ",\"grid_cells\":" + std::to_string(header.grid_cells) +
                    ",\"schemes\":[";
  bool first = true;
  for (const auto& scheme : header.schemes) {
    if (!first) out += ',';
    out += '"' + json_escape(scheme) + '"';
    first = false;
  }
  out += "]}}";
  return out;
}

namespace {

/// Mini-cursor for the shard-header grammar.
struct HeaderCursor {
  const std::string& text;
  std::size_t pos = 0;

  bool literal(const char* word) {
    const std::size_t len = std::char_traits<char>::length(word);
    if (text.compare(pos, len, word) != 0) return false;
    pos += len;
    return true;
  }
  bool quoted(std::string& out) {
    if (pos >= text.size() || text[pos] != '"') return false;
    ++pos;
    out.clear();
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= text.size()) return false;
      const char esc = text[pos++];
      if (esc == '"' || esc == '\\') out += esc;
      else return false;  // json_escape never hits other escapes for our names
    }
    return false;
  }
  bool uint(std::size_t& out) {
    const char* begin = text.data() + pos;
    const char* end = text.data() + text.size();
    const auto result = std::from_chars(begin, end, out);
    if (result.ec != std::errc()) return false;
    pos += static_cast<std::size_t>(result.ptr - begin);
    return true;
  }
};

}  // namespace

std::optional<SweepShardHeader> parse_shard_header(const std::string& line) {
  HeaderCursor cur{line};
  SweepShardHeader header;
  if (!cur.literal("{\"hydra_sweep_shard\":{\"fingerprint\":")) return std::nullopt;
  if (!cur.quoted(header.fingerprint)) return std::nullopt;
  if (!cur.literal(",\"shard\":") || !cur.uint(header.shard)) return std::nullopt;
  if (!cur.literal(",\"shards\":") || !cur.uint(header.shards)) return std::nullopt;
  if (!cur.literal(",\"grid_cells\":") || !cur.uint(header.grid_cells)) return std::nullopt;
  if (!cur.literal(",\"schemes\":[")) return std::nullopt;
  if (!cur.literal("]")) {
    do {
      std::string scheme;
      if (!cur.quoted(scheme)) return std::nullopt;
      header.schemes.push_back(std::move(scheme));
    } while (cur.literal(","));
    if (!cur.literal("]")) return std::nullopt;
  }
  if (!cur.literal("}}") || cur.pos != line.size()) return std::nullopt;
  if (header.shards == 0 || header.shard >= header.shards) return std::nullopt;
  // We are the only producer: a line that parses but would be written
  // differently (a leading zero, an unescaped control byte) is not ours.
  if (format_shard_header(header) != line) return std::nullopt;
  return header;
}

std::optional<SweepCheckpoint> read_sweep_checkpoint(const std::string& path) {
  std::error_code ignored;
  if (std::filesystem::status(path, ignored).type() == std::filesystem::file_type::not_found) {
    return std::nullopt;
  }
  std::ifstream in(path, std::ios::binary);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(std::move(line));
  // A directory opens fine and then fails its first read.
  if (!in.is_open() || in.bad()) throw std::runtime_error("cannot read checkpoint: " + path);
  if (lines.empty()) return std::nullopt;

  SweepCheckpoint checkpoint;
  const auto header = parse_shard_header(lines[0]);
  if (!header.has_value()) {
    throw std::runtime_error(path + ":1: no sweep checkpoint header; every sweep JSONL "
                             "opens with one, and a file without it cannot be "
                             "resumed or merged");
  }
  checkpoint.header = *header;
  std::ostringstream canonical;
  for (std::size_t n = 1; n < lines.size(); ++n) {
    const std::string where = path + ":" + std::to_string(n + 1);
    auto row = parse_jsonl_row(lines[n]);
    if (!row.has_value()) {
      if (parse_shard_header(lines[n]).has_value()) {
        throw std::runtime_error(where + ": a second checkpoint header — files must "
                                 "be merged, not concatenated");
      }
      // A torn or blank final line is the write in flight when the run was
      // killed: its cell stays incomplete and is re-evaluated, not trusted.
      if (n + 1 == lines.size()) {
        checkpoint.torn_tail = true;
        break;
      }
      throw std::runtime_error(where + ": corrupt checkpoint line (only a torn FINAL "
                               "line is tolerated)");
    }
    if (row->cell.empty()) {
      throw std::runtime_error(where + ": row carries no sweep cell key; only sweep "
                               "checkpoints can be resumed or merged");
    }
    canonical.str("");
    JsonlSink(canonical).row(*row);
    if (canonical.str() != lines[n] + '\n') {
      throw std::runtime_error(where + ": row does not re-serialize to its own bytes, "
                               "so a sweep did not write it");
    }
    checkpoint.rows.push_back(CheckpointRow{std::move(*row), std::move(lines[n])});
  }
  return checkpoint;
}

namespace {

using SchemeSet = std::vector<std::unique_ptr<core::Allocator>>;

/// One (point, instance) unit of the flattened grid — the granularity of
/// work stealing and of resume.
struct SweepUnit {
  std::size_t point = 0;
  BatchItem item;
  const core::Instance* preloaded = nullptr;  // preset-instance source
  std::string cell;
  double target_utilization = 0.0;
};

/// A spec's flattened grid: one BatchSpec per point (the synthetic or file
/// source) and one unit per (point, instance) in emission order, across
/// every shard.
struct Grid {
  std::vector<BatchSpec> point_specs;
  std::vector<SweepUnit> units;
};

Grid expand_grid(const SweepSpec& spec) {
  Grid grid;
  grid.point_specs.resize(spec.points.size());
  for (std::size_t p = 0; p < spec.points.size(); ++p) {
    const auto& point = spec.points[p];
    auto& point_spec = grid.point_specs[p];
    point_spec.synthetic = point.synthetic;
    point_spec.total_utilization = point.total_utilization;
    point_spec.base_seed = sweep_point_seed(spec.base_seed, p);
    point_spec.max_attempts = spec.max_attempts;
    if (point.instance.has_value()) {
      SweepUnit unit;
      unit.point = p;
      unit.item.index = 0;
      unit.item.label = "instance";
      unit.preloaded = &*point.instance;
      unit.cell = sweep_cell_key(p, point.label, 0);
      grid.units.push_back(std::move(unit));
      continue;
    }
    if (!point.files.empty()) {
      point_spec.files = point.files;
    } else {
      point_spec.count = spec.replications;
    }
    for (auto& item : enumerate(point_spec)) {
      SweepUnit unit;
      unit.point = p;
      unit.cell = sweep_cell_key(p, point.label, item.index);
      unit.target_utilization = point.files.empty() ? point.total_utilization : 0.0;
      unit.item = std::move(item);
      grid.units.push_back(std::move(unit));
    }
  }
  return grid;
}

/// Stamps the sweep context onto freshly evaluated rows.
void stamp_rows(std::vector<BatchRow>& rows, const SweepUnit& unit,
                const std::string& point_label) {
  for (auto& row : rows) {
    row.cell = unit.cell;
    row.point_index = unit.point;
    row.point_label = point_label;
    row.target_utilization = unit.target_utilization;
    row.instance_index = unit.item.index;
    row.instance_label = unit.item.label;
    row.seed = unit.item.seed;
  }
}

/// Whether a checkpointed cell holds what this spec would emit for `unit`:
/// one row per scheme in spec order, each already carrying the stamp_rows
/// context, and the full metric set on every validated row.
bool cached_cell_matches(const std::vector<BatchRow>& rows, const SweepUnit& unit,
                         const SweepSpec& spec) {
  if (rows.size() != spec.schemes.size()) return false;
  for (std::size_t j = 0; j < rows.size(); ++j) {
    const auto& row = rows[j];
    if (row.scheme != spec.schemes[j]) return false;
    if (row.point_index != unit.point || row.point_label != spec.points[unit.point].label ||
        row.target_utilization != unit.target_utilization) {
      return false;
    }
    if (row.seed != unit.item.seed || row.instance_label != unit.item.label) return false;
    if (row.instance_index != unit.item.index) return false;
    if (row.status == "ok" && row.feasible && row.validated) {
      if (row.metrics.size() != spec.metrics.size()) return false;
      for (std::size_t k = 0; k < spec.metrics.size(); ++k) {
        if (row.metrics[k].first != spec.metrics[k].name) return false;
      }
    } else if (!row.metrics.empty()) {
      return false;
    }
  }
  return true;
}

struct JoinGuard {
  std::vector<std::thread>& workers;
  ~JoinGuard() {
    for (auto& worker : workers) {
      if (worker.joinable()) worker.join();
    }
  }
};

}  // namespace

Sweep::Sweep(SweepSpec spec) : spec_(std::move(spec)) {
  if (spec_.schemes.empty()) {
    throw std::invalid_argument("sweep needs at least one scheme");
  }
  core::AllocatorRegistry::global().make_all(spec_.schemes);  // typo check
  if (!spec_.gp_backend.empty()) gp::SolverRegistry::global().require(spec_.gp_backend);
  if (spec_.points.empty()) {
    throw std::invalid_argument("sweep needs at least one point");
  }
  if (spec_.replications == 0) {
    throw std::invalid_argument("sweep needs at least one replication per point");
  }
  if (spec_.shard_count == 0) {
    throw std::invalid_argument("sweep shard_count must be at least 1");
  }
  if (spec_.shard_index >= spec_.shard_count) {
    throw std::invalid_argument(
        "sweep shard_index " + std::to_string(spec_.shard_index) +
        " out of range for shard_count " + std::to_string(spec_.shard_count));
  }
  // Fix the default labels now: cell keys (and hence resume identity) must
  // not depend on when a caller happens to read them.
  for (auto& point : spec_.points) {
    if (!point.label.empty()) continue;
    if (point.instance.has_value()) {
      point.label = "m=" + std::to_string(point.instance->num_cores) + " case-study";
    } else if (!point.files.empty()) {
      point.label = "files";
    } else {
      point.label = "m=" + std::to_string(point.synthetic.num_cores) +
                    " u=" + format_double(point.total_utilization);
    }
  }
  // Read the checkpoint now so callers can reuse the same path for the
  // (truncating) output sink they open between construction and run().
  if (spec_.resume_path.empty()) return;
  const std::string& path = spec_.resume_path;
  auto checkpoint = read_sweep_checkpoint(path);
  if (!checkpoint.has_value()) return;  // cold start
  const auto& header = checkpoint->header;
  const std::string fingerprint = sweep_fingerprint(spec_);
  if (header.fingerprint != fingerprint) {
    throw std::runtime_error("resume checkpoint " + path +
                             " was written by a different sweep spec (fingerprint " +
                             header.fingerprint + ", this spec is " + fingerprint + ")");
  }
  // A whole run or a merge (shard 0 of 1) seeds any shard, which splices
  // the cells it owns; a shard's own file seeds only that shard.
  if (header.shards != 1 &&
      (header.shard != spec_.shard_index || header.shards != spec_.shard_count)) {
    throw std::runtime_error(
        "resume checkpoint " + path + " belongs to shard " + std::to_string(header.shard) +
        "/" + std::to_string(header.shards) + ", but this run is shard " +
        std::to_string(spec_.shard_index) + "/" + std::to_string(spec_.shard_count));
  }
  std::map<std::string, std::vector<BatchRow>> cells;
  for (auto& entry : checkpoint->rows) {
    cells[entry.row.cell].push_back(std::move(entry.row));
  }
  const auto grid = expand_grid(spec_);
  std::map<std::string, const SweepUnit*> units;
  for (const auto& unit : grid.units) units.emplace(unit.cell, &unit);
  for (auto& [cell, rows] : cells) {
    const auto unit = units.find(cell);
    if (unit == units.end()) {
      throw std::runtime_error("resume checkpoint " + path + " contains cell '" + cell +
                               "', which is outside this sweep's grid");
    }
    // Fewer rows than schemes: the cell was torn by a kill; re-evaluate it.
    if (rows.size() < spec_.schemes.size()) continue;
    if (!cached_cell_matches(rows, *unit->second, spec_)) {
      throw std::runtime_error("resume checkpoint " + path + " is corrupt: cell '" + cell +
                               "' disagrees with the spec its fingerprint names");
    }
    checkpoint_.emplace(cell, std::move(rows));
  }
}

SweepShardHeader Sweep::shard_header() const {
  return SweepShardHeader{sweep_fingerprint(spec_), spec_.shard_index, spec_.shard_count,
                          expand_grid(spec_).units.size(), spec_.schemes};
}

SweepSummary Sweep::run(const std::vector<ResultSink*>& sinks) const {
  const auto started = std::chrono::steady_clock::now();

  auto grid = expand_grid(spec_);
  auto& units = grid.units;

  // Sharded run: keep only the units the cell-key partition assigns to this
  // shard.  Dropping units here — after keys are fixed, before any queue or
  // checkpoint work — is what keeps the surviving cells byte-identical to
  // their single-process counterparts.
  if (spec_.shard_count > 1) {
    std::vector<SweepUnit> mine;
    mine.reserve(units.size() / spec_.shard_count + 1);
    for (auto& unit : units) {
      if (sweep_shard_of(unit.cell, spec_.shard_count) == spec_.shard_index) {
        mine.push_back(std::move(unit));
      }
    }
    units = std::move(mine);
  }

  SweepSummary summary;
  summary.points = spec_.points.size();
  summary.cells = units.size();

  // Splice in checkpointed cells before any worker starts: resumed units are
  // pre-completed slots in the reorder buffer, not queue entries.
  std::vector<std::vector<BatchRow>> results(units.size());
  std::vector<char> done(units.size(), 0);
  for (std::size_t i = 0; i < units.size() && !checkpoint_.empty(); ++i) {
    const auto found = checkpoint_.find(units[i].cell);
    if (found == checkpoint_.end()) continue;
    results[i] = found->second;
    done[i] = 1;
    ++summary.resumed_cells;
  }

  std::vector<std::size_t> pending;
  pending.reserve(units.size());
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (!done[i]) pending.push_back(i);
  }

  for (auto* sink : sinks) sink->begin();
  const auto emit = [&](std::vector<BatchRow> rows) {
    for (auto& row : rows) {
      if (row.status == "ok") {
        ++summary.evaluated;
        if (row.feasible && row.validated) ++summary.feasible;
      } else if (row.status == "skipped") {
        ++summary.skipped;
      } else {
        ++summary.errors;
      }
      for (auto* sink : sinks) sink->row(row);
      summary.rows.push_back(std::move(row));
    }
  };

  const auto evaluate_unit = [this, &grid](const SweepUnit& unit, const SchemeSet& schemes) {
    static const BatchSpec kEmptySpec;
    // Pin every GP solve of this unit to the spec's backend ("" pins the
    // registry default).  Installed unconditionally so a stray outer scope
    // on a worker thread can never leak into row bytes.
    const gp::GpBackendScope backend_scope(spec_.gp_backend);
    auto rows = evaluate_batch_item(unit.preloaded ? kEmptySpec : grid.point_specs[unit.point],
                                    unit.item, unit.preloaded, schemes, spec_.metrics);
    stamp_rows(rows, unit, spec_.points[unit.point].label);
    return rows;
  };

  std::size_t jobs = spec_.jobs;
  if (jobs == 0) jobs = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  jobs = std::min(jobs, std::max<std::size_t>(1, pending.size()));

  if (jobs <= 1) {
    const auto schemes = core::AllocatorRegistry::global().make_all(spec_.schemes);
    for (std::size_t i = 0; i < units.size(); ++i) {
      if (!done[i]) results[i] = evaluate_unit(units[i], schemes);
      emit(std::move(results[i]));
    }
  } else {
    // One queue across every point: `pending` is the work-stealing job list,
    // `results`/`done` the reorder buffer the coordinator drains in grid
    // order — no barrier between utilization points anywhere.
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::condition_variable ready;

    std::vector<std::thread> workers;
    workers.reserve(jobs);
    JoinGuard join_guard{workers};
    for (std::size_t w = 0; w < jobs; ++w) {
      workers.emplace_back([&] {
        const auto schemes = core::AllocatorRegistry::global().make_all(spec_.schemes);
        for (std::size_t q = next.fetch_add(1); q < pending.size();
             q = next.fetch_add(1)) {
          const std::size_t i = pending[q];
          auto rows = evaluate_unit(units[i], schemes);
          {
            std::lock_guard<std::mutex> lock(mutex);
            results[i] = std::move(rows);
            done[i] = 1;
          }
          ready.notify_one();
        }
      });
    }

    for (std::size_t i = 0; i < units.size(); ++i) {
      std::unique_lock<std::mutex> lock(mutex);
      ready.wait(lock, [&] { return done[i] != 0; });
      auto rows = std::move(results[i]);
      lock.unlock();
      emit(std::move(rows));
    }
  }

  for (auto* sink : sinks) sink->end();
  summary.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - started)
                        .count();
  return summary;
}

}  // namespace hydra::exp
