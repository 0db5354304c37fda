#pragma once
// Tiny --key=value / --flag argv parser used by examples and benches.
// Every binary runs with sensible defaults when given no arguments; the
// parser exists so experiments can be re-run at paper scale.

#include <cstdint>
#include <map>
#include <string>

namespace neuro::common {

/// Parses "--key=value" and bare "--flag" arguments. Unknown positional
/// arguments are rejected with a short usage message on stderr.
class Cli {
public:
    Cli(int argc, const char* const* argv);

    bool has(const std::string& key) const;
    std::string get(const std::string& key, const std::string& fallback) const;
    /// Numeric values must parse whole: a value with no digits, trailing
    /// characters or out of range throws std::invalid_argument naming the
    /// flag, so a malformed number stops the binary instead of running it
    /// with a truncated one.
    std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
    double get_double(const std::string& key, double fallback) const;
    bool get_bool(const std::string& key, bool fallback) const;

    /// True if parsing failed (malformed argument).
    bool error() const { return error_; }

private:
    std::map<std::string, std::string> kv_;
    bool error_ = false;
};

}  // namespace neuro::common
