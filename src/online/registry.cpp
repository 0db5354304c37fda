#include "online/registry.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace neuro::online {

namespace fs = std::filesystem;

ModelRegistry::ModelRegistry(std::string dir) : dir_(std::move(dir)) {
    if (dir_.empty())
        throw std::invalid_argument("ModelRegistry: empty directory");
    fs::create_directories(dir_);
    reload();
}

void ModelRegistry::reload() {
    const fs::path manifest = fs::path(dir_) / "MANIFEST";
    std::vector<RegistryEntry> fresh;
    if (fs::exists(manifest)) {
        std::ifstream in(manifest);
        if (!in)
            throw std::runtime_error("ModelRegistry: cannot read " +
                                     manifest.string());
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty()) continue;
            std::istringstream row(line);
            RegistryEntry entry;
            if (!(row >> entry.version >> entry.accuracy))
                throw std::runtime_error(
                    "ModelRegistry: malformed manifest line '" + line +
                    "' in " + manifest.string());
            fresh.push_back(entry);
        }
    }
    entries_ = std::move(fresh);
}

bool ModelRegistry::has(std::uint64_t version) const {
    return std::any_of(
        entries_.begin(), entries_.end(),
        [&](const RegistryEntry& e) { return e.version == version; });
}

std::string ModelRegistry::snapshot_path(std::uint64_t version) const {
    std::string file = "v";
    file += std::to_string(version);
    file += ".nrws";
    return (fs::path(dir_) / file).string();
}

void ModelRegistry::record(std::uint64_t version, double accuracy,
                          const runtime::WeightSnapshot& snap) {
    runtime::save_snapshot(snapshot_path(version), snap);
    // Memory gains the entry only once a manifest holding it is on disk.
    const RegistryEntry entry{version, accuracy};
    write_manifest(entry);
    entries_.push_back(entry);
}

void ModelRegistry::write_manifest(const RegistryEntry& appended) const {
    const fs::path manifest = fs::path(dir_) / "MANIFEST";
    const fs::path tmp = fs::path(dir_) / "MANIFEST.tmp";
    {
        std::ofstream out(tmp);
        if (!out)
            throw std::runtime_error("ModelRegistry: cannot write " +
                                     tmp.string());
        // max_digits10 so the accuracy round-trips exactly across restarts.
        out << std::setprecision(std::numeric_limits<double>::max_digits10);
        for (const auto& e : entries_) out << e.version << " " << e.accuracy << "\n";
        out << appended.version << " " << appended.accuracy << "\n";
        if (!out.flush())
            throw std::runtime_error("ModelRegistry: write failed for " +
                                     tmp.string());
    }
    fs::rename(tmp, manifest);  // atomic on POSIX: old manifest or new, never half
}

std::optional<RegistryEntry> ModelRegistry::last_good() const {
    if (entries_.empty()) return std::nullopt;
    return entries_.back();
}

runtime::WeightSnapshot ModelRegistry::load(std::uint64_t version) const {
    if (!has(version))
        throw std::invalid_argument("ModelRegistry: version " +
                                    std::to_string(version) + " not recorded");
    return runtime::load_snapshot(snapshot_path(version));
}

}  // namespace neuro::online
