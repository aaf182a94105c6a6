// Tiny key=value option parsing for the driver CLI, examples and benches.
//
// Accepts "key=value" tokens on the command line plus environment-variable
// fallbacks, so the bench harness can be run as-is or scaled via e.g.
// `V6D_QUICK=1 ./bench/fig4_density_maps` without editing sources.  The
// driver subsystem layers INI-style config files underneath the same map:
// precedence is command line > config file > environment > defaults.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace v6d {

/// Thrown by the typed getters when a present, non-empty value does not
/// parse in full as the key's type.
class BadOptionValue : public std::invalid_argument {
 public:
  BadOptionValue(const std::string& key, const std::string& value,
                 const std::string& expected);
  const std::string& key() const { return key_; }
  const std::string& value() const { return value_; }

 private:
  std::string key_, value_;
};

class Options {
 public:
  Options() = default;
  Options(int argc, char** argv);

  /// Value lookup order: command line, then environment variable
  /// `V6D_<KEY>` (upper-cased), then the supplied default.
  std::string get(const std::string& key, const std::string& def) const;
  /// Typed reads of the same lookup: an absent or empty value gives
  /// `def`; any other value must parse in full — an int in range, a
  /// double, a non-negative 64-bit integer, or a bool spelled 1/0,
  /// true/false, yes/no or on/off — or the read throws BadOptionValue
  /// naming the key and the value.
  int get_int(const std::string& key, int def) const;
  double get_double(const std::string& key, double def) const;
  std::uint64_t get_u64(const std::string& key, std::uint64_t def) const;
  bool get_bool(const std::string& key, bool def) const;

  bool has(const std::string& key) const;
  void set(const std::string& key, const std::string& value);
  /// Insert only if the key is absent (lower-precedence source).
  void set_default(const std::string& key, const std::string& value);

  /// Load an INI-style config file: one `key = value` per line, `#`/`;`
  /// comments, optional `[section]` headers prefixing keys as
  /// `section.key`.  File values never override keys already present
  /// (command-line overrides win).  Returns false if the file cannot be
  /// opened or a non-blank line has no '='; *error describes the failure.
  bool load_file(const std::string& path, std::string* error = nullptr);

  /// All keys currently set, sorted (serialization / debugging).
  std::vector<std::string> keys() const;

 private:
  std::map<std::string, std::string> values_;
};

/// The one argv parser shared by the `v6d` CLI and every example/bench:
/// `key=value` tokens populate `options`, `-h`/`--help` sets `help`, and
/// anything else (config paths, subcommands) lands in `positional`.
struct CliArgs {
  Options options;
  std::vector<std::string> positional;
  bool help = false;
};
CliArgs parse_cli(int argc, char** argv);

/// True when the harness should favour short runtimes (env V6D_QUICK=1).
bool quick_mode();

}  // namespace v6d
