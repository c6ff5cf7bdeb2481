#include "lint/lint.h"

#include <algorithm>
#include <ostream>

#include "core/error.h"
#include "io/json.h"

namespace asilkit::lint {

std::string_view to_string(Severity s) noexcept {
    switch (s) {
        case Severity::Off: return "off";
        case Severity::Note: return "note";
        case Severity::Warning: return "warning";
        case Severity::Error: return "error";
    }
    return "?";
}

Severity severity_from_string(std::string_view text) {
    if (text == "off") return Severity::Off;
    if (text == "note") return Severity::Note;
    if (text == "warning") return Severity::Warning;
    if (text == "error") return Severity::Error;
    throw IoError("unknown lint severity '" + std::string(text) +
                  "' (expected off, note, warning or error)");
}

std::string_view to_string(Layer l) noexcept {
    switch (l) {
        case Layer::Application: return "app";
        case Layer::Resource: return "resource";
        case Layer::Physical: return "physical";
        case Layer::Mapping: return "mapping";
    }
    return "?";
}

ModelLocation ModelLocation::app_node(const ArchitectureModel& m, NodeId n) {
    return {Layer::Application, n.value(), m.app().node(n).name};
}

ModelLocation ModelLocation::resource(const ArchitectureModel& m, ResourceId r) {
    return {Layer::Resource, r.value(), m.resources().node(r).name};
}

ModelLocation ModelLocation::location(const ArchitectureModel& m, LocationId p) {
    return {Layer::Physical, p.value(), m.physical().node(p).name};
}

std::string ModelLocation::qualified_name() const {
    return std::string(to_string(layer)) + ":" + name;
}

std::ostream& operator<<(std::ostream& os, const Diagnostic& d) {
    os << to_string(d.severity) << " [" << d.rule_id << "] " << d.location.qualified_name()
       << ": " << d.message;
    if (!d.fixit.empty()) os << "\n  fix-it: " << d.fixit;
    return os;
}

std::size_t LintReport::count(Severity s) const noexcept {
    return static_cast<std::size_t>(
        std::count_if(diagnostics.begin(), diagnostics.end(),
                      [s](const Diagnostic& d) { return d.severity == s; }));
}

bool LintReport::has(std::string_view rule_id) const noexcept {
    return std::any_of(diagnostics.begin(), diagnostics.end(),
                       [rule_id](const Diagnostic& d) { return d.rule_id == rule_id; });
}

LintContext::LintContext(const ArchitectureModel& m)
    : model_(m), blocks_(find_redundant_blocks(m)), ccf_(analysis::analyze_ccf(m)) {}

Severity LintConfig::effective(const RuleInfo& info) const noexcept {
    if (const auto it = overrides.find(info.id); it != overrides.end()) return it->second;
    return info.default_severity;
}

namespace {

LintConfig config_from_json(const io::Json& doc) {
    // Like an unknown rule id, a misspelled key or a document of the wrong
    // type would otherwise drop every override without a word.
    if (!doc.is_object()) throw IoError("lint config must be a JSON object {\"rules\": {...}}");
    for (const auto& [key, value] : doc.as_object()) {
        if (key != "rules") {
            throw IoError("lint config has unknown key '" + key + "' (expected \"rules\")");
        }
    }
    LintConfig config;
    if (!doc.contains("rules")) return config;
    for (const auto& [id, value] : doc.at("rules").as_object()) {
        if (find_rule(id) == nullptr) {
            throw IoError("lint config names unknown rule '" + id + "'");
        }
        config.overrides[id] = severity_from_string(value.as_string());
    }
    return config;
}

}  // namespace

LintConfig lint_config_from_json_text(std::string_view text) {
    return config_from_json(io::Json::parse(text));
}

LintConfig load_lint_config(const std::string& path) {
    return config_from_json(io::load_json_file(path));
}

}  // namespace asilkit::lint
