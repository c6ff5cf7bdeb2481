#include "analysis/ccf.h"

#include <algorithm>
#include <array>
#include <ostream>
#include <utility>

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

std::size_t CcfReport::count(CcfKind kind) const noexcept {
    return static_cast<std::size_t>(std::count_if(
        findings.begin(), findings.end(),
        [kind](const CcfFinding& f) { return f.kind == kind; }));
}

namespace {

/// Environment's zone dimensions, in declared order: the order of a
/// block's SharedEnvironment findings.
struct ZoneDimension {
    const char* name;
    int Environment::*zone;
};
constexpr std::array<ZoneDimension, 4> kZoneDimensions{{
    {"temperature", &Environment::temperature_zone},
    {"vibration", &Environment::vibration_zone},
    {"emi", &Environment::emi_zone},
    {"water", &Environment::water_exposure_zone},
}};

/// The finding's text, from its kind, subject and branches.
std::string finding_message(const CcfFinding& f, const std::string& merger_name) {
    std::string users;
    for (std::size_t i : f.branch_indices) {
        if (!users.empty()) users += ", ";
        users += std::to_string(i);
    }
    switch (f.kind) {
        case CcfKind::SharedResource:
            return "resource '" + f.subject + "' is shared by branches {" + users +
                   "} of the block at merger '" + merger_name +
                   "'; the ASIL decomposition is not valid";
        case CcfKind::SharedLocation:
            return "branches {" + users + "} of the block at merger '" + merger_name +
                   "' are both placed at location '" + f.subject + "'";
        case CcfKind::SharedEnvironment:
            return "branches {" + users + "} of the block at merger '" + merger_name +
                   "' share environmental stressor " + f.subject +
                   " (freedom-from-interference concern)";
    }
    return {};
}

void analyze_block(const ArchitectureModel& m, const RedundantBlock& block, CcfReport& report) {
    const std::string& merger_name = m.app().node(block.merger).name;
    auto add = [&](CcfKind kind, std::string subject, std::vector<std::size_t> branches) {
        CcfFinding f{kind, block.merger, std::move(subject), std::move(branches), {}};
        f.message = finding_message(f, merger_name);
        report.findings.push_back(std::move(f));
    };

    const BranchUsage usage = branch_usage(m, block);
    for (const auto& use : usage.resources) {
        if (use.shared()) {
            add(CcfKind::SharedResource, m.resources().node(use.id).name, use.branches);
        }
    }
    // ((dimension, zone), branch) for each branch using a location in a
    // non-benign zone.
    std::vector<std::pair<std::pair<std::size_t, int>, std::size_t>> zone_users;
    for (const auto& use : usage.locations) {
        if (use.shared()) {
            add(CcfKind::SharedLocation, m.physical().node(use.id).name, use.branches);
        }
        const Environment& env = m.physical().node(use.id).env;
        for (std::size_t d = 0; d < kZoneDimensions.size(); ++d) {
            const int zone = env.*kZoneDimensions[d].zone;
            if (zone == 0) continue;
            for (const std::size_t b : use.branches) zone_users.push_back({{d, zone}, b});
        }
    }
    std::sort(zone_users.begin(), zone_users.end());
    zone_users.erase(std::unique(zone_users.begin(), zone_users.end()), zone_users.end());
    std::vector<std::size_t> branches;
    for (std::size_t i = 0; i < zone_users.size(); ++i) {
        branches.push_back(zone_users[i].second);
        if (i + 1 < zone_users.size() && zone_users[i + 1].first == zone_users[i].first) continue;
        if (branches.size() > 1) {
            const auto [d, zone] = zone_users[i].first;
            add(CcfKind::SharedEnvironment,
                std::string(kZoneDimensions[d].name).append("-zone-").append(std::to_string(zone)),
                std::move(branches));
        }
        branches.clear();
    }
}

}  // namespace

CcfReport analyze_ccf(const ArchitectureModel& m) {
    CcfReport report;
    for (const RedundantBlock& block : find_redundant_blocks(m)) analyze_block(m, block, report);
    return report;
}

}  // namespace asilkit::analysis
