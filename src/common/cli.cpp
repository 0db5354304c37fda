#include "common/cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace neuro::common {

Cli::Cli(int argc, const char* const* argv) {
    for (int i = 1; i < argc; ++i) {
        std::string_view arg(argv[i]);
        if (arg.rfind("--", 0) != 0) {
            std::fprintf(stderr, "unrecognized argument '%s' (expected --key=value)\n",
                         argv[i]);
            error_ = true;
            continue;
        }
        arg.remove_prefix(2);
        const auto eq = arg.find('=');
        if (eq == std::string_view::npos) {
            kv_[std::string(arg)] = "true";
        } else {
            kv_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
        }
    }
}

bool Cli::has(const std::string& key) const { return kv_.count(key) > 0; }

std::string Cli::get(const std::string& key, const std::string& fallback) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? fallback : it->second;
}

namespace {

/// Parses all of `text` with `parse` (a strtoll/strtod-shaped call); a
/// value with no digits, trailing characters or out of range names the flag.
template <typename Parse>
auto parse_number(const std::string& key, const std::string& text,
                  const char* kind, Parse parse) {
    const char* begin = text.c_str();
    char* end = nullptr;
    errno = 0;
    const auto value = parse(begin, &end);
    if (end == begin || *end != '\0' || errno == ERANGE)
        throw std::invalid_argument("--" + key + " expects " + kind + ", got '" +
                                    text + "'");
    return value;
}

}  // namespace

std::int64_t Cli::get_int(const std::string& key, std::int64_t fallback) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return fallback;
    return parse_number(key, it->second, "an integer",
                        [](const char* s, char** end) { return std::strtoll(s, end, 10); });
}

double Cli::get_double(const std::string& key, double fallback) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return fallback;
    return parse_number(key, it->second, "a number",
                        [](const char* s, char** end) { return std::strtod(s, end); });
}

bool Cli::get_bool(const std::string& key, bool fallback) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return fallback;
    return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace neuro::common
