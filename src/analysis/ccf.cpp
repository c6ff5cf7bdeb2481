#include "analysis/ccf.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <set>

#include "model/blocks.h"

namespace asilkit::analysis {

std::string_view to_string(CcfKind k) noexcept {
    switch (k) {
        case CcfKind::SharedResource: return "shared-resource";
        case CcfKind::SharedLocation: return "shared-location";
        case CcfKind::SharedEnvironment: return "shared-environment";
    }
    return "?";
}

std::ostream& operator<<(std::ostream& os, const CcfFinding& f) {
    return os << to_string(f.kind) << " at merger " << f.merger << ": " << f.message;
}

bool CcfReport::block_independent(NodeId merger) const noexcept {
    return std::none_of(findings.begin(), findings.end(),
                        [merger](const CcfFinding& f) { return f.merger == merger; });
}

bool CcfReport::block_approximation_safe(NodeId merger) const noexcept {
    return std::none_of(findings.begin(), findings.end(), [merger](const CcfFinding& f) {
        return f.merger == merger && f.kind == CcfKind::SharedResource;
    });
}

std::size_t CcfReport::count(CcfKind kind) const noexcept {
    return static_cast<std::size_t>(std::count_if(
        findings.begin(), findings.end(),
        [kind](const CcfFinding& f) { return f.kind == kind; }));
}

namespace {

struct EnvZoneKey {
    const char* dimension;
    int zone;
    friend auto operator<=>(const EnvZoneKey&, const EnvZoneKey&) = default;
};

void analyze_block(const ArchitectureModel& m, const RedundantBlock& block, CcfReport& report) {
    const std::string merger_name = m.app().node(block.merger).name;

    // subject -> branches using it, per dimension.
    std::map<ResourceId, std::set<std::size_t>> resource_users;
    std::map<LocationId, std::set<std::size_t>> location_users;
    std::map<EnvZoneKey, std::set<std::size_t>> zone_users;

    for (std::size_t i = 0; i < block.branches.size(); ++i) {
        for (NodeId n : block.branches[i].nodes) {
            for (ResourceId r : m.mapped_resources(n)) {
                resource_users[r].insert(i);
                for (LocationId p : m.resource_locations(r)) {
                    location_users[p].insert(i);
                    const Environment& env = m.physical().node(p).env;
                    if (env.temperature_zone) {
                        zone_users[{"temperature", env.temperature_zone}].insert(i);
                    }
                    if (env.vibration_zone) zone_users[{"vibration", env.vibration_zone}].insert(i);
                    if (env.emi_zone) zone_users[{"emi", env.emi_zone}].insert(i);
                    if (env.water_exposure_zone) {
                        zone_users[{"water", env.water_exposure_zone}].insert(i);
                    }
                }
            }
        }
    }

    auto branch_list = [](const std::set<std::size_t>& s) {
        std::string out;
        for (std::size_t i : s) {
            if (!out.empty()) out += ", ";
            out += std::to_string(i);
        }
        return out;
    };

    for (const auto& [r, users] : resource_users) {
        if (users.size() < 2) continue;
        CcfFinding f;
        f.kind = CcfKind::SharedResource;
        f.merger = block.merger;
        f.subject = m.resources().node(r).name;
        f.branch_indices.assign(users.begin(), users.end());
        f.message = "resource '" + f.subject + "' is shared by branches {" + branch_list(users) +
                    "} of the block at merger '" + merger_name +
                    "'; the ASIL decomposition is not valid";
        report.findings.push_back(std::move(f));
    }
    for (const auto& [p, users] : location_users) {
        if (users.size() < 2) continue;
        CcfFinding f;
        f.kind = CcfKind::SharedLocation;
        f.merger = block.merger;
        f.subject = m.physical().node(p).name;
        f.branch_indices.assign(users.begin(), users.end());
        f.message = "branches {" + branch_list(users) + "} of the block at merger '" +
                    merger_name + "' are both placed at location '" + f.subject + "'";
        report.findings.push_back(std::move(f));
    }
    for (const auto& [zone, users] : zone_users) {
        if (users.size() < 2) continue;
        CcfFinding f;
        f.kind = CcfKind::SharedEnvironment;
        f.merger = block.merger;
        f.subject = std::string(zone.dimension) + "-zone-" + std::to_string(zone.zone);
        f.branch_indices.assign(users.begin(), users.end());
        f.message = "branches {" + branch_list(users) + "} of the block at merger '" +
                    merger_name + "' share environmental stressor " + f.subject +
                    " (freedom-from-interference concern)";
        report.findings.push_back(std::move(f));
    }
}

}  // namespace

CcfReport analyze_ccf(const ArchitectureModel& m) {
    CcfReport report;
    for (const RedundantBlock& block : find_redundant_blocks(m)) analyze_block(m, block, report);
    return report;
}

}  // namespace asilkit::analysis
