/// \file strings.hpp
/// \brief Small string-formatting helpers used by table/CSV writers.
#pragma once

#include <string>
#include <vector>

namespace feast {

/// Formats a double with \p precision fractional digits (fixed notation).
std::string format_fixed(double value, int precision);

/// Formats a double compactly: fixed with up to \p precision digits, with
/// trailing zeros (and a trailing dot) removed.
std::string format_compact(double value, int precision = 6);

/// Formats a double with %.17g: enough significant digits that parsing
/// the text back yields the same double.  Cache keys, cache records and
/// manifests rely on that round trip.
std::string format_full(double value);

/// Joins string pieces with a separator.
std::string join(const std::vector<std::string>& pieces, const std::string& sep);

/// Left-pads \p s with spaces to width \p w (no-op if already wider).
std::string pad_left(const std::string& s, std::size_t w);

/// Right-pads \p s with spaces to width \p w (no-op if already wider).
std::string pad_right(const std::string& s, std::size_t w);

/// True when \p s starts with \p prefix.
bool starts_with(const std::string& s, const std::string& prefix);

/// Splits on a delimiter character; keeps empty fields.
std::vector<std::string> split(const std::string& s, char delim);

/// Removes leading and trailing whitespace.
std::string trim(const std::string& s);

}  // namespace feast
