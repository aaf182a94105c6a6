#include "common/options.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <system_error>

namespace v6d {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

/// The value of `key` parsed in full as a T, `def` when it is absent or
/// empty; throws BadOptionValue when it is anything else.
template <class T>
T parse_in_full(const Options& options, const std::string& key, T def,
                const char* expected) {
  const std::string v = options.get(key, "");
  if (v.empty()) return def;
  T value{};
  const char* end = v.data() + v.size();
  const auto parsed = std::from_chars(v.data(), end, value);
  if (parsed.ec != std::errc() || parsed.ptr != end)
    throw BadOptionValue(key, v, expected);
  return value;
}

}  // namespace

BadOptionValue::BadOptionValue(const std::string& key,
                               const std::string& value,
                               const std::string& expected)
    : std::invalid_argument("bad value '" + value + "' for key '" + key +
                            "': expected " + expected),
      key_(key),
      value_(value) {}

Options::Options(int argc, char** argv) {
  *this = parse_cli(argc, argv).options;
}

CliArgs parse_cli(int argc, char** argv) {
  CliArgs cli;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token == "-h" || token == "--help") {
      cli.help = true;
      continue;
    }
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      cli.positional.push_back(token);
      continue;
    }
    cli.options.set(token.substr(0, eq), token.substr(eq + 1));
  }
  return cli;
}

std::string Options::get(const std::string& key, const std::string& def) const {
  auto it = values_.find(key);
  if (it != values_.end()) return it->second;
  std::string env_key = "V6D_" + key;
  std::transform(env_key.begin(), env_key.end(), env_key.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  if (const char* env = std::getenv(env_key.c_str())) return env;
  return def;
}

int Options::get_int(const std::string& key, int def) const {
  return parse_in_full(*this, key, def, "an integer in range");
}

double Options::get_double(const std::string& key, double def) const {
  return parse_in_full(*this, key, def, "a number");
}

std::uint64_t Options::get_u64(const std::string& key,
                               std::uint64_t def) const {
  return parse_in_full(*this, key, def, "a non-negative integer");
}

bool Options::get_bool(const std::string& key, bool def) const {
  const std::string v = get(key, "");
  if (v.empty()) return def;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw BadOptionValue(key, v, "1/0, true/false, yes/no or on/off");
}

bool Options::has(const std::string& key) const {
  return values_.count(key) > 0;
}

void Options::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

void Options::set_default(const std::string& key, const std::string& value) {
  values_.emplace(key, value);
}

bool Options::load_file(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open config file: " + path;
    return false;
  }
  std::string line, section;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto comment = line.find_first_of("#;");
    if (comment != std::string::npos) line.erase(comment);
    line = trim(line);
    if (line.empty()) continue;
    if (line.front() == '[' && line.back() == ']') {
      section = trim(line.substr(1, line.size() - 2));
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos || eq == 0) {
      if (error) {
        std::ostringstream oss;
        oss << path << ":" << lineno << ": expected 'key = value', got '"
            << line << "'";
        *error = oss.str();
      }
      return false;
    }
    std::string key = trim(line.substr(0, eq));
    if (!section.empty()) key = section + "." + key;
    set_default(key, trim(line.substr(eq + 1)));
  }
  return true;
}

std::vector<std::string> Options::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [key, value] : values_) out.push_back(key);
  return out;
}

bool quick_mode() {
  const char* env = std::getenv("V6D_QUICK");
  return env && std::string(env) != "0";
}

}  // namespace v6d
