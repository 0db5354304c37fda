#pragma once
// Prometheus text exposition helpers (docs/ARCHITECTURE.md §14).
//
// The serving structs stay plain (ServerStats, ModelEntryStats,
// DaemonStats know nothing of exposition); netd::Daemon renders them at
// scrape time into `neuro_*` families with these two helpers, and the
// control socket's `metrics` command terminates the text with a literal
// "# EOF" line — the framing a scraper reads up to.

#include <cstdint>
#include <string>

namespace neuro::obs {

/// Appends the "# HELP <name> <help>" and "# TYPE <name> <type>" header
/// lines of one metric family.
void append_help_type(std::string& out, const std::string& name,
                      const char* type, const std::string& help);

/// Appends one sample line "<name><labels> <value>"; `labels` is either
/// empty or a complete "{k=\"v\",...}" block.
void append_sample(std::string& out, const std::string& name,
                   const std::string& labels, double value);
void append_sample(std::string& out, const std::string& name,
                   const std::string& labels, std::uint64_t value);

}  // namespace neuro::obs
