#include "campaign/cache.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "check/fault.hpp"
#include "obs/obs.hpp"
#include "util/contracts.hpp"
#include "util/fsio.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace feast {

namespace {

// v3: records gained a trailing whole-record checksum line ("sum <hex>"),
// so truncation, bit flips and appended garbage all read as misses instead
// of silently-wrong stats.  v2 keys collided across scheduler cores; v1/v2
// records are treated as misses rather than risking a stale read.
constexpr char kRecordMagic[] = "feast-cell v3";

void write_summary(std::ostream& out, const char* name, const StatSummary& s) {
  out << name << ' ' << s.count << ' ' << format_full(s.mean) << ' '
      << format_full(s.stddev) << ' ' << format_full(s.min) << ' ' << format_full(s.max)
      << ' ' << format_full(s.ci95_half_width) << '\n';
}

/// istream's num_get rejects the `nan`/`inf` tokens %.17g produces, which
/// would turn any record holding a non-finite stat into a permanent cache
/// miss; strtod accepts them, so parse whitespace-delimited tokens instead.
bool read_double(std::istream& in, double& out) {
  std::string token;
  if (!(in >> token)) return false;
  char* end = nullptr;
  out = std::strtod(token.c_str(), &end);
  return end == token.c_str() + token.size();
}

bool read_summary(std::istream& in, const char* name, StatSummary& s) {
  std::string label;
  if (!(in >> label) || label != name) return false;
  if (!(in >> s.count)) return false;
  return read_double(in, s.mean) && read_double(in, s.stddev) &&
         read_double(in, s.min) && read_double(in, s.max) &&
         read_double(in, s.ci95_half_width);
}

/// The record body (everything up to and including the newline before the
/// sum line) rendered for one cell.
std::string render_record_body(const std::string& canonical_key,
                               const CellStats& stats) {
  std::ostringstream out;
  out << kRecordMagic << '\n';
  out << "key " << canonical_key << '\n';
  write_summary(out, "max_lateness", stats.max_lateness);
  write_summary(out, "end_to_end", stats.end_to_end);
  write_summary(out, "makespan", stats.makespan);
  write_summary(out, "min_laxity", stats.min_laxity);
  out << "infeasible_runs " << stats.infeasible_runs << '\n';
  return out.str();
}

/// Splits \p data into body + checksum and verifies both.  The sum line must
/// be the final line of the file: bytes appended after it make the last line
/// not a sum line, bytes removed break the checksum, so any truncation or
/// trailing garbage fails here.  On failure \p why distinguishes a missing
/// tail (no newline-terminated `sum` line at the end: truncation) from a
/// complete-but-wrong record (bad hex, checksum mismatch: corruption).
bool verify_record_checksum(const std::string& data, std::string& body,
                            RecordError& why) {
  if (data.size() < 2 || data.back() != '\n') {
    why = RecordError::Truncated;
    return false;
  }
  const std::size_t line_start = data.rfind('\n', data.size() - 2);
  const std::string last =
      line_start == std::string::npos
          ? data.substr(0, data.size() - 1)
          : data.substr(line_start + 1, data.size() - line_start - 2);
  if (last.rfind("sum ", 0) != 0) {
    // The bytes end mid-body: everything before the sum line is a valid
    // prefix of a record, so the tail went missing in delivery.
    why = RecordError::Truncated;
    return false;
  }
  why = RecordError::Corrupt;
  const std::string hex = last.substr(4);
  if (hex.size() != 16) return false;
  char* end = nullptr;
  const std::uint64_t stored = std::strtoull(hex.c_str(), &end, 16);
  if (end != hex.c_str() + hex.size()) return false;
  if (line_start == std::string::npos) return false;  // Sum line, no body.
  body = data.substr(0, line_start + 1);
  return fnv1a64(body) == stored;
}

}  // namespace

std::uint64_t fnv1a64(std::string_view data) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV offset basis.
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;  // FNV prime.
  }
  return hash;
}

std::string hash_hex(std::uint64_t hash) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

void write_cell_record(std::ostream& out, const std::string& canonical_key,
                       const CellStats& stats) {
  const std::string body = render_record_body(canonical_key, stats);
  out << body << "sum " << hash_hex(fnv1a64(body)) << '\n';
}

const char* to_string(RecordError error) noexcept {
  switch (error) {
    case RecordError::None: return "";
    case RecordError::Truncated: return "truncated";
    case RecordError::Corrupt: return "corrupt";
  }
  return "?";
}

std::optional<std::string> read_cell_record(std::istream& in, CellStats& out) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return read_cell_record(buffer.str(), out);
}

std::optional<std::string> read_cell_record(const std::string& data, CellStats& out,
                                            RecordError* error) {
  RecordError why = RecordError::None;
  std::string body;
  if (!verify_record_checksum(data, body, why)) {
    if (error != nullptr) *error = why;
    return std::nullopt;
  }
  // Past the checksum the bytes are provably the ones the writer hashed;
  // any parse failure below means a complete-but-incompatible record.
  if (error != nullptr) *error = RecordError::Corrupt;

  std::istringstream in(body);
  std::string line;
  if (!std::getline(in, line) || line != kRecordMagic) return std::nullopt;
  if (!std::getline(in, line) || line.rfind("key ", 0) != 0) return std::nullopt;
  std::string key = line.substr(4);
  CellStats stats;
  if (!read_summary(in, "max_lateness", stats.max_lateness)) return std::nullopt;
  if (!read_summary(in, "end_to_end", stats.end_to_end)) return std::nullopt;
  if (!read_summary(in, "makespan", stats.makespan)) return std::nullopt;
  if (!read_summary(in, "min_laxity", stats.min_laxity)) return std::nullopt;
  std::string label;
  if (!(in >> label) || label != "infeasible_runs") return std::nullopt;
  if (!(in >> stats.infeasible_runs)) return std::nullopt;
  if (error != nullptr) *error = RecordError::None;
  out = stats;
  return key;
}

ResultCache::ResultCache(std::filesystem::path dir) : dir_(std::move(dir)) {
  FEAST_REQUIRE(!dir_.empty());
  std::filesystem::create_directories(dir_);
}

std::filesystem::path ResultCache::record_path(const std::string& canonical_key) const {
  return dir_ / (hash_hex(fnv1a64(canonical_key)) + ".cell");
}

bool ResultCache::lookup(const std::string& canonical_key, CellStats& out) {
  bool hit = false;
  bool corrupt = false;
  std::ifstream file(record_path(canonical_key), std::ios::binary);
  if (file) {
    std::ostringstream buffer;
    buffer << file.rdbuf();
    std::string data = buffer.str();
    if (const auto fault = check::fire(check::FaultSite::CacheLookup)) {
      if (*fault == check::FaultAction::ShortRead) {
        data.resize(data.size() / 2);  // The reader sees only a prefix.
      } else {
        check::execute(*fault, "cache-lookup");
      }
    }
    CellStats stats;
    const auto stored_key = read_cell_record(data, stats);
    if (!stored_key) {
      // Truncated, bit-flipped, garbage-extended or old-format record: a
      // miss, never an exception or a wrong answer.  Recompute overwrites it.
      corrupt = true;
      obs::count(obs::Counter::CacheCorrupt);
      FEAST_LOG_WARN << "cell cache: corrupt record "
                     << record_path(canonical_key).string() << " (treated as miss)";
    } else if (*stored_key == canonical_key) {
      // A record stored under a different canonical key (hash collision, or
      // a stale file from an older format) is a miss, never a wrong answer.
      out = stats;
      hit = true;
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (hit) {
    ++hits_;
  } else {
    ++misses_;
    if (corrupt) ++corrupt_;
  }
  return hit;
}

bool ResultCache::contains(const std::string& canonical_key) {
  CellStats ignored;
  return lookup(canonical_key, ignored);
}

void ResultCache::store(const std::string& canonical_key, const CellStats& stats) {
  std::ostringstream record_stream;
  write_cell_record(record_stream, canonical_key, stats);
  std::string record = record_stream.str();

  bool die_mid_write = false;
  if (const auto fault = check::fire(check::FaultSite::CacheStore)) {
    switch (*fault) {
      case check::FaultAction::FailWrite:
        FEAST_LOG_WARN << "cell cache: injected write failure for "
                       << record_path(canonical_key).string();
        return;
      case check::FaultAction::Truncate:
        record.resize(record.size() / 2);
        break;
      case check::FaultAction::BadMagic:
        record[0] = '#';
        break;
      case check::FaultAction::Die:
        die_mid_write = true;  // Crash after the partial tmp write below.
        break;
      default:
        check::execute(*fault, "cache-store");
    }
  }

  const std::filesystem::path path = record_path(canonical_key);
  // Serialize writers of the same record across *processes* (two feastc
  // runs sharing a --cache-dir); unique_tmp_path makes the scratch name
  // collision-free even when the lock degrades to unlocked.
  FileLock write_lock(path);
  const std::filesystem::path tmp = unique_tmp_path(path);
  if (die_mid_write) {
    // A crash mid-write leaves a torn temporary and no renamed record.
    std::ofstream file(tmp, std::ios::binary);
    if (file) {
      file << record.substr(0, record.size() / 2);
      file.flush();
    }
    std::_Exit(check::kFaultExitCode);
  }
  std::string error;
  if (!write_file_synced(tmp, record, &error)) {
    FEAST_LOG_WARN << "cell cache: cannot write " << tmp.string() << ": " << error;
    return;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    FEAST_LOG_WARN << "cell cache: rename failed: " << ec.message();
    std::filesystem::remove(tmp, ec);
    return;
  }
  fsync_parent_dir(path);
  std::lock_guard<std::mutex> lock(mutex_);
  ++stores_;
}

std::size_t ResultCache::hits() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::size_t ResultCache::misses() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::size_t ResultCache::stores() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return stores_;
}

std::size_t ResultCache::corrupt() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return corrupt_;
}

ResultCache* install_global_cell_cache(const std::filesystem::path& dir) {
  // Deliberately leaked: the cache must outlive every sweep, including ones
  // issued from static destructors of bench binaries.
  auto* cache = new ResultCache(dir);
  set_cell_cache(cache);
  return cache;
}

}  // namespace feast
