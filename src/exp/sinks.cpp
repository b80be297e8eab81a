#include "exp/sinks.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "io/table.h"

namespace hydra::exp {

namespace {

const char* const kColumns[] = {"cell",     "instance",  "label",
                                "seed",     "scheme",    "status",
                                "feasible", "validated", "tightness",
                                "normalized", "note"};

std::vector<std::string> row_cells(const BatchRow& row) {
  return {row.cell.empty() ? std::string("-") : row.cell,
          std::to_string(row.instance_index),
          row.instance_label,
          row.seed == 0 ? std::string("-") : std::to_string(row.seed),
          row.scheme,
          row.status,
          row.feasible ? "yes" : "no",
          row.validated ? "yes" : "no",
          row.feasible ? format_double(row.cumulative_tightness) : "-",
          row.feasible ? format_double(row.normalized_tightness) : "-",
          row.note};
}

}  // namespace

std::string format_double(double value) {
  // std::to_chars emits the shortest round-trip representation and ignores
  // the locale, which is what keeps the streams byte-stable.  Non-finite
  // values stay visible instead of masquerading as numbers.
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

std::string json_number(double value) {
  // JSON has no NaN/Infinity literal; null keeps the line parseable.
  return std::isfinite(value) ? format_double(value) : "null";
}

// ---------------------------------------------------------------------------
// CsvSink
// ---------------------------------------------------------------------------

void CsvSink::begin() {
  if (header_written_) return;
  header_written_ = true;
  bool first = true;
  for (const char* column : kColumns) {
    if (!first) os_ << ',';
    os_ << column;
    first = false;
  }
  os_ << '\n';
}

void CsvSink::row(const BatchRow& row) {
  bool first = true;
  for (const auto& cell : row_cells(row)) {
    if (!first) os_ << ',';
    os_ << io::csv_quote(cell);
    first = false;
  }
  os_ << '\n';
}

// ---------------------------------------------------------------------------
// JsonlSink
// ---------------------------------------------------------------------------

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonlSink::row(const BatchRow& row) {
  os_ << "{\"cell\":\"" << json_escape(row.cell) << '"'
      << ",\"point\":" << row.point_index
      << ",\"point_label\":\"" << json_escape(row.point_label) << '"'
      << ",\"target_utilization\":" << json_number(row.target_utilization)
      << ",\"instance\":" << row.instance_index
      << ",\"label\":\"" << json_escape(row.instance_label) << '"'
      << ",\"seed\":" << row.seed
      << ",\"scheme\":\"" << json_escape(row.scheme) << '"'
      << ",\"status\":\"" << json_escape(row.status) << '"'
      << ",\"feasible\":" << (row.feasible ? "true" : "false")
      << ",\"validated\":" << (row.validated ? "true" : "false")
      << ",\"cumulative_tightness\":" << json_number(row.cumulative_tightness)
      << ",\"normalized_tightness\":" << json_number(row.normalized_tightness)
      << ",\"rt_utilization\":" << json_number(row.rt_utilization)
      << ",\"sec_utilization\":" << json_number(row.sec_utilization);
  if (!row.metrics.empty()) {
    os_ << ",\"metrics\":{";
    bool first = true;
    for (const auto& [name, value] : row.metrics) {
      if (!first) os_ << ',';
      os_ << '"' << json_escape(name) << "\":" << json_number(value);
      first = false;
    }
    os_ << '}';
  }
  os_ << ",\"note\":\"" << json_escape(row.note) << "\"}\n";
}

// ---------------------------------------------------------------------------
// JSONL row parsing (the resume loader's half of the round trip)
// ---------------------------------------------------------------------------

namespace {

/// Cursor over one JSONL line.  The grammar is exactly what JsonlSink emits —
/// a flat object of strings / numbers / booleans / null plus one optional
/// nested "metrics" object — so the parser can stay tiny and strict: any
/// deviation (truncated line, foreign producer) fails the whole row, which
/// the resume loader treats as "recompute this cell" on the final line and
/// as a corrupt checkpoint anywhere else.
struct JsonCursor {
  const std::string& text;
  std::size_t pos = 0;

  bool eat(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  bool peek(char c) const { return pos < text.size() && text[pos] == c; }
  bool literal(const char* word) {
    const std::size_t len = std::char_traits<char>::length(word);
    if (text.compare(pos, len, word) != 0) return false;
    pos += len;
    return true;
  }
};

bool parse_json_string(JsonCursor& cur, std::string& out) {
  if (!cur.eat('"')) return false;
  out.clear();
  while (cur.pos < cur.text.size()) {
    const char c = cur.text[cur.pos++];
    if (c == '"') return true;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (cur.pos >= cur.text.size()) return false;
    const char esc = cur.text[cur.pos++];
    switch (esc) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (cur.pos + 4 > cur.text.size()) return false;
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = cur.text[cur.pos++];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else return false;
        }
        // Our escaper only produces \u00xx for control bytes; reject anything
        // a round trip could not have written.
        if (code > 0x7F) return false;
        out += static_cast<char>(code);
        break;
      }
      default: return false;
    }
  }
  return false;  // unterminated
}

bool parse_json_number(JsonCursor& cur, double& out) {
  if (cur.literal("null")) {
    out = std::numeric_limits<double>::quiet_NaN();
    return true;
  }
  const char* begin = cur.text.data() + cur.pos;
  const char* end = cur.text.data() + cur.text.size();
  const auto result = std::from_chars(begin, end, out);
  if (result.ec != std::errc()) return false;
  cur.pos += static_cast<std::size_t>(result.ptr - begin);
  return true;
}

/// Unsigned integers (seed is a full 64-bit splitmix64 value) must not go
/// through double — anything above 2^53 would round and break the
/// byte-identical re-serialization guarantee.
bool parse_json_uint(JsonCursor& cur, std::uint64_t& out) {
  const char* begin = cur.text.data() + cur.pos;
  const char* end = cur.text.data() + cur.text.size();
  const auto result = std::from_chars(begin, end, out);
  if (result.ec != std::errc()) return false;
  cur.pos += static_cast<std::size_t>(result.ptr - begin);
  return true;
}

bool parse_json_metrics(JsonCursor& cur,
                        std::vector<std::pair<std::string, double>>& out) {
  if (!cur.eat('{')) return false;
  if (cur.eat('}')) return true;
  do {
    std::string name;
    double value = 0.0;
    if (!parse_json_string(cur, name) || !cur.eat(':') ||
        !parse_json_number(cur, value)) {
      return false;
    }
    out.emplace_back(std::move(name), value);
  } while (cur.eat(','));
  return cur.eat('}');
}

}  // namespace

std::optional<BatchRow> parse_jsonl_row(const std::string& line) {
  JsonCursor cur{line};
  if (!cur.eat('{')) return std::nullopt;
  BatchRow row;
  bool first = true;
  while (!cur.peek('}')) {
    if (!first && !cur.eat(',')) return std::nullopt;
    first = false;
    std::string key;
    if (!parse_json_string(cur, key) || !cur.eat(':')) return std::nullopt;

    if (key == "metrics") {
      if (!parse_json_metrics(cur, row.metrics)) return std::nullopt;
      continue;
    }
    if (key == "feasible" || key == "validated") {
      bool value;
      if (cur.literal("true")) value = true;
      else if (cur.literal("false")) value = false;
      else return std::nullopt;
      (key == "feasible" ? row.feasible : row.validated) = value;
      continue;
    }
    if (key == "cell" || key == "point_label" || key == "label" ||
        key == "scheme" || key == "status" || key == "note") {
      std::string value;
      if (!parse_json_string(cur, value)) return std::nullopt;
      if (key == "cell") row.cell = std::move(value);
      else if (key == "point_label") row.point_label = std::move(value);
      else if (key == "label") row.instance_label = std::move(value);
      else if (key == "scheme") row.scheme = std::move(value);
      else if (key == "status") row.status = std::move(value);
      else row.note = std::move(value);
      continue;
    }
    if (key == "point" || key == "instance" || key == "seed") {
      std::uint64_t value = 0;
      if (!parse_json_uint(cur, value)) return std::nullopt;
      if (key == "point") row.point_index = static_cast<std::size_t>(value);
      else if (key == "instance") row.instance_index = static_cast<std::size_t>(value);
      else row.seed = value;
      continue;
    }
    double value = 0.0;
    if (!parse_json_number(cur, value)) return std::nullopt;
    if (key == "target_utilization") row.target_utilization = value;
    else if (key == "cumulative_tightness") row.cumulative_tightness = value;
    else if (key == "normalized_tightness") row.normalized_tightness = value;
    else if (key == "rt_utilization") row.rt_utilization = value;
    else if (key == "sec_utilization") row.sec_utilization = value;
    else return std::nullopt;  // a key JsonlSink never writes
  }
  cur.eat('}');
  // Trailing garbage after the object means the line is not ours.
  return cur.pos == line.size() ? std::optional<BatchRow>(std::move(row)) : std::nullopt;
}

// ---------------------------------------------------------------------------
// File sink
// ---------------------------------------------------------------------------

namespace {

class FileSink : public ResultSink {
 public:
  FileSink(const std::string& path, bool jsonl, const std::string& header_line)
      : path_(path), stream_(open_output_file(path)) {
    if (!header_line.empty()) stream_ << header_line << '\n';
    if (jsonl) {
      inner_ = std::make_unique<JsonlSink>(stream_);
    } else {
      inner_ = std::make_unique<CsvSink>(stream_);
    }
  }

  void begin() override { inner_->begin(); }
  void row(const BatchRow& row) override {
    inner_->row(row);
    stream_.flush();
  }
  void end() override {
    inner_->end();
    check_written(stream_, path_);
  }

 private:
  std::string path_;
  std::ofstream stream_;
  std::unique_ptr<ResultSink> inner_;
};

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

std::ofstream open_output_file(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open output file: " + path);
  return out;
}

void check_written(std::ostream& os, const std::string& path) {
  os.flush();
  if (!os) throw std::runtime_error("cannot write output file: " + path);
}

std::unique_ptr<ResultSink> make_file_sink(const std::string& path,
                                           const std::string& header_line) {
  if (ends_with(path, ".jsonl") || ends_with(path, ".json")) {
    return std::make_unique<FileSink>(path, /*jsonl=*/true, header_line);
  }
  if (ends_with(path, ".csv")) {
    if (!header_line.empty()) {
      throw std::invalid_argument(
          "a checkpoint header is a JSONL concept (CSV is no checkpoint); cannot "
          "prepend one to " + path);
    }
    return std::make_unique<FileSink>(path, /*jsonl=*/false, header_line);
  }
  throw std::invalid_argument("result file must end in .jsonl, .json or .csv: " + path);
}

}  // namespace hydra::exp
