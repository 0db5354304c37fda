#include "obs/exposition.hpp"

#include <cinttypes>
#include <cstdio>

namespace neuro::obs {

void append_help_type(std::string& out, const std::string& name,
                      const char* type, const std::string& help) {
    out += "# HELP ";
    out += name;
    out += ' ';
    out += help;
    out += "\n# TYPE ";
    out += name;
    out += ' ';
    out += type;
    out += '\n';
}

void append_sample(std::string& out, const std::string& name,
                   const std::string& labels, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out += name;
    out += labels;
    out += ' ';
    out += buf;
    out += '\n';
}

void append_sample(std::string& out, const std::string& name,
                   const std::string& labels, std::uint64_t value) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRIu64, value);
    out += name;
    out += labels;
    out += ' ';
    out += buf;
    out += '\n';
}

}  // namespace neuro::obs
