/// \file flags.hpp
/// \brief Declarative command-line flags.  A command declares each flag once,
///        as a row (help section, flag, metavar, help text, typed setter);
///        the parser, the help text, the "needs a value" / "unknown option" /
///        bad-number errors and the bound checks all come from those rows.
///
/// Also the one copy of the strict number parsers, which the campaign spec
/// reader shares.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/strings.hpp"

namespace feast {

/// A malformed command line; what() is the message for stderr.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Strict parsers: all of \p text must be the number, integers in any base
/// std::stoll accepts (e.g. 0x10).  parse_u64 takes the full uint64 range
/// and rejects a minus sign rather than wrapping it.  They throw
/// std::invalid_argument "bad number for WHAT: 'TEXT'".
long long parse_integer(const std::string& what, const std::string& text);
std::uint64_t parse_u64(const std::string& what, const std::string& text);
double parse_real(const std::string& what, const std::string& text);

/// True for the 64-bit unsigned types (uint64_t, size_t) parse_u64 fills.
template <class N>
inline constexpr bool kIsU64 =
    std::is_unsigned_v<N> && sizeof(N) == sizeof(std::uint64_t);

/// parse_real for a floating-point \p N, parse_u64 for a 64-bit unsigned
/// \p N, else parse_integer narrowed to \p N.
template <class N>
N parse_number(const std::string& what, const std::string& text) {
  if constexpr (std::is_floating_point_v<N>) return parse_real(what, text);
  else if constexpr (kIsU64<N>) return parse_u64(what, text);
  else return static_cast<N>(parse_integer(what, text));
}

/// "A:B" (fields trimmed) with A <= B; throws std::invalid_argument
/// "WHAT wants A:B, got 'TEXT'", "WHAT range is empty: 'TEXT'" or a
/// parse_number error.
template <class N>
std::pair<N, N> parse_range(const std::string& what, const std::string& text) {
  const std::vector<std::string> fields = split(text, ':');
  if (fields.size() != 2) {
    throw std::invalid_argument(what + " wants A:B, got '" + text + "'");
  }
  const N a = parse_number<N>(what, trim(fields[0]));
  const N b = parse_number<N>(what, trim(fields[1]));
  if (b < a) throw std::invalid_argument(what + " range is empty: '" + text + "'");
  return {a, b};
}

/// The value paired with \p text in \p values; throws
/// std::invalid_argument "WHAT wants A|B|..., got 'TEXT'".
template <class T>
T parse_choice(const std::string& what, const std::string& text,
               const std::vector<std::pair<const char*, T>>& values) {
  for (const auto& [name, value] : values) {
    if (text == name) return value;
  }
  std::string names;
  for (const auto& entry : values) {
    names += (names.empty() ? "" : "|") + std::string(entry.first);
  }
  throw std::invalid_argument(what + " wants " + names + ", got '" + text + "'");
}

/// Accepted values of a numeric flag: [min, max], either end open.
struct Bound {
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  double min = -kInf;
  double max = kInf;
  bool min_open = false;
  bool max_open = false;

  static constexpr Bound positive() { return {0.0, kInf, true, false}; }
  static constexpr Bound non_negative() { return {0.0, kInf, false, false}; }
  static constexpr Bound between(double lo, double hi) { return {lo, hi, false, false}; }

  /// Throws std::invalid_argument, e.g. "--procs must be positive", when
  /// \p v is outside.
  void check(const std::string& name, double v, bool integral) const;
};

/// One command's rows.  A flag's value is the next argument; a row whose
/// metavar starts with '=' also accepts the joined `--flag=VALUE` spelling.
class Flags {
 public:
  /// \p command, when not empty, prefixes the unknown-option error, e.g.
  /// "campaign run: unknown option '--bogus'".
  explicit Flags(std::string command = "") : command_(std::move(command)) {}

  /// Rows declared from here on render under the section \p title,
  /// compared by address.
  Flags& section(const char* title) {
    section_ = title;
    return *this;
  }

  /// A help row that is not a flag: \p term (a synopsis such as
  /// "campaign run <spec>") laid out like a flag, or, with no \p help, a
  /// literal line.
  Flags& note(std::string term, std::string help = "") {
    return help.empty() ? add("", "", std::move(term), nullptr, false)
                        : add(std::move(term), "", std::move(help), nullptr, false);
  }

  /// The command's one positional argument: any word not starting with
  /// '-', plus "-" itself when \p stdin_dash.
  Flags& positional(std::optional<std::string>& target, bool stdin_dash) {
    positional_ = &target;
    stdin_dash_ = stdin_dash;
    return *this;
  }

  /// A switch.  Rows with an empty help are accepted but not listed.
  Flags& action(const std::string& name, std::string help, std::function<void()> run) {
    return add(name, "", std::move(help), [run](const std::string&) { run(); }, false);
  }
  Flags& toggle(const std::string& name, std::string help, bool& target) {
    return action(name, std::move(help), [&target] { target = true; });
  }

  /// A string into a string or optional target.
  template <class T>
  Flags& text(const std::string& name, std::string metavar, std::string help, T& target) {
    return value(name, std::move(metavar), std::move(help),
                 [&target](const std::string& v) { target = v; });
  }

  /// A number within \p bound into an arithmetic or optional target,
  /// parsed as parse_number does: a 64-bit unsigned target takes the full
  /// range and rejects negatives.
  template <class T>
  Flags& number(const std::string& name, std::string metavar, std::string help, T& target,
                Bound bound = {}) {
    using N = typename Target<T>::type;
    using Wide = std::conditional_t<std::is_floating_point_v<N>, double,
                                    std::conditional_t<kIsU64<N>, N, long long>>;
    return value(name, std::move(metavar), std::move(help),
                 [&target, name, bound](const std::string& v) {
                   const Wide x = parse_number<Wide>(name, v);
                   bound.check(name, static_cast<double>(x), std::is_integral_v<N>);
                   target = static_cast<N>(x);
                 });
  }

  /// "A:B" with A within \p bound and B >= A.
  template <class N>
  Flags& range(const std::string& name, std::string metavar, std::string help, N& min,
               N& max, Bound bound = {}) {
    return value(name, std::move(metavar), std::move(help),
                 [&min, &max, name, bound](const std::string& v) {
                   const auto [a, b] = parse_range<N>(name, v);
                   bound.check(name, static_cast<double>(a), std::is_integral_v<N>);
                   min = a;
                   max = b;
                 });
  }

  /// One of \p values' names, stored as its paired value.
  template <class T>
  Flags& choice(const std::string& name, std::string metavar, std::string help,
                std::vector<std::pair<const char*, T>> values, T& target) {
    return value(name, std::move(metavar), std::move(help),
                 [&target, name, values](const std::string& v) {
                   target = parse_choice(name, v, values);
                 });
  }
  Flags& choice(const std::string& name, std::string metavar, std::string help,
                std::initializer_list<const char*> values, std::string& target);

  /// A comma-separated list of integers, each within \p bound; replaces
  /// \p target.
  Flags& list(const std::string& name, std::string metavar, std::string help,
              std::vector<int>& target, Bound bound = {});

  /// "CELL:SPEC" (repeatable): a non-negative cell index, then the rest of
  /// the value, which may itself contain ':'.
  Flags& cell_spec(const std::string& name, std::string metavar, std::string help,
                   std::map<std::size_t, std::string>& target);

  /// Applies \p args in order.  Throws UsageError on a missing value, an
  /// unknown option, a second positional argument or a rejected value.
  void parse(const std::vector<std::string>& args) const;

  /// One rendered help row: a note, or a flag whose help text starts at
  /// the column given to help().
  struct HelpLine {
    const char* section;
    std::string text;
  };

  /// Appends the rendered rows to \p lines, leaving out rows with an empty
  /// help.
  void help(std::vector<HelpLine>& lines, std::size_t column) const;

 private:
  template <class T>
  struct Target {
    using type = T;
  };
  template <class T>
  struct Target<std::optional<T>> {
    using type = T;
  };

  /// A flag whose value is handed to \p set, which throws
  /// std::invalid_argument to reject it.
  Flags& value(const std::string& name, std::string metavar, std::string help,
               std::function<void(const std::string&)> set) {
    return add(name, std::move(metavar), std::move(help), std::move(set), true);
  }

  /// A flag row; a note when \p set is null.
  Flags& add(std::string name, std::string metavar, std::string help,
             std::function<void(const std::string&)> set, bool takes_value);

  struct Row {
    const char* section;
    std::string name;  ///< Empty for a literal note.
    std::string metavar;
    std::string help;  ///< A literal note's whole line.
    std::function<void(const std::string&)> set;
    bool takes_value;
  };

  std::string command_;
  const char* section_ = nullptr;
  std::vector<Row> rows_;
  std::optional<std::string>* positional_ = nullptr;
  bool stdin_dash_ = false;
};

}  // namespace feast
