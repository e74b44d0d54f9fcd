#include "util/flags.hpp"

namespace feast {

namespace {

/// Runs one std::sto* conversion that must consume all of \p text.
template <class Convert>
auto strict(const std::string& what, const std::string& text, Convert convert) {
  try {
    std::size_t pos = 0;
    const auto v = convert(text, &pos);
    // std::stoull wraps "-1" round to the maximum instead of rejecting it.
    const bool wrapped = std::is_unsigned_v<decltype(v)> && text.find('-') != text.npos;
    if (pos == text.size() && !wrapped) return v;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument("bad number for " + what + ": '" + text + "'");
}

}  // namespace

long long parse_integer(const std::string& what, const std::string& text) {
  return strict(what, text, [](const std::string& s, std::size_t* pos) {
    return std::stoll(s, pos, 0);
  });
}

std::uint64_t parse_u64(const std::string& what, const std::string& text) {
  return strict(what, text, [](const std::string& s, std::size_t* pos) {
    return static_cast<std::uint64_t>(std::stoull(s, pos, 0));
  });
}

double parse_real(const std::string& what, const std::string& text) {
  return strict(what, text,
                [](const std::string& s, std::size_t* pos) { return std::stod(s, pos); });
}

void Bound::check(const std::string& name, double v, bool integral) const {
  if ((min_open ? v > min : v >= min) && (max_open ? v < max : v <= max)) return;
  const std::string lo = format_compact(min, 6);
  const std::string hi = format_compact(max, 6);
  std::string rule = (min_open ? " must be > " : " must be >= ") + lo;
  if (max != kInf && integral) rule = " wants " + lo + ".." + hi;
  else if (max != kInf) rule = " must be in [" + lo + ", " + hi + (max_open ? ")" : "]");
  else if (integral && min == 0.0 && min_open) rule = " must be positive";
  else if (integral && min == 0.0) rule = " must be non-negative";
  throw std::invalid_argument(name + rule);
}

Flags& Flags::choice(const std::string& name, std::string metavar, std::string help,
                     std::initializer_list<const char*> values, std::string& target) {
  std::vector<std::pair<const char*, std::string>> pairs;
  for (const char* v : values) pairs.emplace_back(v, v);
  return choice(name, std::move(metavar), std::move(help), std::move(pairs), target);
}

Flags& Flags::list(const std::string& name, std::string metavar, std::string help,
                   std::vector<int>& target, Bound bound) {
  return value(name, std::move(metavar), std::move(help),
               [&target, name, bound](const std::string& v) {
                 target.clear();
                 for (const std::string& piece : split(v, ',')) {
                   const long long n = parse_integer(name, trim(piece));
                   bound.check(name, static_cast<double>(n), true);
                   target.push_back(static_cast<int>(n));
                 }
               });
}

Flags& Flags::cell_spec(const std::string& name, std::string metavar, std::string help,
                        std::map<std::size_t, std::string>& target) {
  return value(name, std::move(metavar), std::move(help),
               [&target, name](const std::string& v) {
                 const std::size_t colon = v.find(':');
                 if (colon == std::string::npos || colon == 0 || colon + 1 == v.size()) {
                   throw std::invalid_argument(name + " wants CELL:SPEC, got '" + v +
                                               "'");
                 }
                 target[parse_u64(name, v.substr(0, colon))] = v.substr(colon + 1);
               });
}

Flags& Flags::add(std::string name, std::string metavar, std::string help,
                  std::function<void(const std::string&)> set, bool takes_value) {
  rows_.push_back({section_, std::move(name), std::move(metavar), std::move(help),
                   std::move(set), takes_value});
  return *this;
}

void Flags::parse(const std::vector<std::string>& args) const {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const std::size_t eq = arg.find('=');
    const Row* row = nullptr;
    std::optional<std::string> value;
    for (const Row& r : rows_) {
      if (!r.set) continue;
      if (r.name == arg) row = &r;
      if (r.metavar.starts_with('=') && eq == r.name.size() && arg.starts_with(r.name)) {
        row = &r;
        value = arg.substr(eq + 1);
      }
      if (row != nullptr) break;
    }
    if (row == nullptr) {
      if (positional_ == nullptr || *positional_ ||
          !(arg.empty() || arg[0] != '-' || (stdin_dash_ && arg == "-"))) {
        throw UsageError((command_.empty() ? "" : command_ + ": ") + "unknown option '" +
                         arg + "'");
      }
      *positional_ = arg;
      continue;
    }
    if (row->takes_value && !value) {
      if (i + 1 == args.size()) throw UsageError("option " + arg + " needs a value");
      value = args[++i];
    }
    try {
      row->set(value.value_or(""));
    } catch (const std::invalid_argument& e) {
      throw UsageError(e.what());
    }
  }
}

void Flags::help(std::vector<HelpLine>& lines, std::size_t column) const {
  for (const Row& row : rows_) {
    if (row.help.empty()) continue;
    if (row.name.empty()) {
      lines.push_back({row.section, row.help});
      continue;
    }
    std::string term = "  " + row.name;
    if (!row.metavar.empty()) term += (row.metavar[0] == '=' ? "" : " ") + row.metavar;
    const std::string indent(column, ' ');
    std::string text;
    for (const std::string& line : split(row.help, '\n')) {
      text += text.empty() ? pad_right(term, column - 2) + "  " : "\n" + indent;
      text += line;
    }
    lines.push_back({row.section, std::move(text)});
  }
}

}  // namespace feast
