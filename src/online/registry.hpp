#pragma once
// On-disk model registry for the online engine. Every weight version that
// PASSES the shadow-eval gate is persisted — snapshot file (checksummed
// runtime::save_snapshot v2 format) plus a manifest line with its held-out
// accuracy — so "the last good version" survives process death: a
// restarted engine republishes it before consuming any feedback, and an
// operator can roll a live server back to any accepted version by hand.
//
// Layout inside the registry directory:
//   v<N>.nrws   weight snapshot of accepted version N
//   MANIFEST    one "<version> <accuracy>" line per accepted version in
//               acceptance order; the last line is the last good version.
//               Rewritten via a temp file + rename so a crash mid-write
//               leaves the previous manifest intact.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "runtime/weights.hpp"

namespace neuro::online {

struct RegistryEntry {
    std::uint64_t version = 0;
    double accuracy = 0.0;  ///< shadow-eval accuracy at acceptance time
};

class ModelRegistry {
public:
    /// Opens the registry at `dir`, creating the directory if needed and
    /// loading the manifest when one exists. Throws on I/O failure or a
    /// malformed manifest.
    explicit ModelRegistry(std::string dir);

    /// Persists an accepted version: writes the snapshot, then appends the
    /// manifest entry (the ordering makes a crash between the two steps
    /// leave an orphaned snapshot file, never a dangling manifest line).
    void record(std::uint64_t version, double accuracy,
                const runtime::WeightSnapshot& snap);

    /// Re-reads the manifest from disk, picking up versions another process
    /// (e.g. an online learner running next to a neurod daemon) has
    /// accepted since this registry was opened. Throws on a malformed
    /// manifest, leaving the in-memory entries unchanged.
    void reload();

    /// Accepted versions in acceptance order (empty for a fresh registry).
    const std::vector<RegistryEntry>& entries() const { return entries_; }

    /// Whether `version` is recorded in the (in-memory) manifest.
    bool has(std::uint64_t version) const;

    /// The most recently accepted version — what a restart should serve.
    std::optional<RegistryEntry> last_good() const;

    /// Loads a recorded version's snapshot (checksum-verified). Throws when
    /// the version was never recorded or its file is corrupt.
    runtime::WeightSnapshot load(std::uint64_t version) const;

    std::string snapshot_path(std::uint64_t version) const;
    const std::string& dir() const { return dir_; }

private:
    /// Writes MANIFEST as entries_ followed by `appended`.
    void write_manifest(const RegistryEntry& appended) const;

    std::string dir_;
    std::vector<RegistryEntry> entries_;
};

}  // namespace neuro::online
