#include "lint/emit.h"

#include <sstream>

#include "core/version.h"
#include "io/sarif.h"

namespace asilkit::lint {
namespace {

/// SARIF has no "off": an off rule emits nothing, and Note maps to the
/// schema's "note" level.
std::string sarif_level(Severity s) {
    switch (s) {
        case Severity::Error: return "error";
        case Severity::Warning: return "warning";
        case Severity::Note: return "note";
        case Severity::Off: break;
    }
    return "none";
}

}  // namespace

std::string to_text(const LintReport& report, const std::string& model_name) {
    std::ostringstream os;
    if (!model_name.empty()) os << model_name << ":\n";
    for (const Diagnostic& d : report.diagnostics) os << d << "\n";
    os << report.error_count() << " errors, " << report.warning_count() << " warnings, "
       << report.note_count() << " notes\n";
    return os.str();
}

io::Json to_json(const LintReport& report, const std::string& model_name) {
    io::Json doc = io::Json::object();
    if (!model_name.empty()) doc["model"] = model_name;
    io::Json summary = io::Json::object();
    summary["errors"] = static_cast<std::uint64_t>(report.error_count());
    summary["warnings"] = static_cast<std::uint64_t>(report.warning_count());
    summary["notes"] = static_cast<std::uint64_t>(report.note_count());
    doc["summary"] = std::move(summary);
    io::Json diagnostics = io::Json::array();
    for (const Diagnostic& d : report.diagnostics) {
        io::Json entry = io::Json::object();
        entry["rule"] = d.rule_id;
        entry["severity"] = to_string(d.severity);
        entry["layer"] = to_string(d.location.layer);
        entry["element"] = d.location.name;
        entry["message"] = d.message;
        if (!d.fixit.empty()) entry["fixit"] = d.fixit;
        diagnostics.push_back(std::move(entry));
    }
    doc["diagnostics"] = std::move(diagnostics);
    return doc;
}

io::Json to_sarif(const LintReport& report) {
    io::SarifLog log("asilkit-lint", kVersionString,
                     "https://github.com/asilkit/asilkit");
    for (const RuleInfo& info : rules()) {
        log.add_rule(std::string(info.id), std::string(info.summary),
                     sarif_level(info.default_severity));
    }
    for (const Diagnostic& d : report.diagnostics) {
        log.add_result(d.rule_id, sarif_level(d.severity), d.message,
                       d.location.qualified_name(), std::string(to_string(d.location.layer)),
                       d.fixit);
    }
    return log.to_json();
}

}  // namespace asilkit::lint
