// Cross-layer safety linter over ArchitectureModel (clang-tidy style).
//
// Where model/validation.h answers "is this model structurally usable?",
// the linter answers "is this candidate architecture *sound*?" — with
// stable rule ids, per-rule severities a config file can override,
// structured locations (which element of which layer), and fix-it hints
// phrased as the transform:: / mapping operation that repairs the
// finding.  Eleven rules report what validate() finds, one rule per
// IssueCode; on top, the linter covers the cross-layer reasoning the
// validator cannot express:
// decomposed branches sharing resources / locations / environmental
// zones, catalogue-invalid decomposition patterns, ASIL propagation
// inconsistencies along application paths, dead splitter/merger pairs,
// and effective-ASIL (Eq. 3) regressions introduced by a mapping.
//
// The linter never builds a fault tree or a BDD: every rule is linear-ish
// in the model size.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/ccf.h"
#include "model/architecture.h"
#include "model/blocks.h"

namespace asilkit::lint {

// ---- severities -----------------------------------------------------------

/// Off disables a rule entirely; Note findings are informational and do
/// not affect the clean/dirty verdict; Warning/Error mirror the
/// validator's severity split.
enum class Severity : std::uint8_t { Off, Note, Warning, Error };

[[nodiscard]] std::string_view to_string(Severity s) noexcept;
/// Parses "off" / "note" / "warning" / "error" (case-sensitive).
/// Throws IoError on anything else.
[[nodiscard]] Severity severity_from_string(std::string_view text);

// ---- locations ------------------------------------------------------------

/// Which of the three model layers (or the mapping between them) a
/// diagnostic is anchored to.
enum class Layer : std::uint8_t { Application, Resource, Physical, Mapping };

[[nodiscard]] std::string_view to_string(Layer l) noexcept;

/// A model location: layer + raw element id + element name.  `id` is the
/// StrongId value of the node/resource/location (kInvalid when the
/// finding has no single anchor element).
struct ModelLocation {
    Layer layer = Layer::Application;
    std::uint32_t id = std::uint32_t(-1);
    std::string name;

    [[nodiscard]] static ModelLocation app_node(const ArchitectureModel& m, NodeId n);
    [[nodiscard]] static ModelLocation resource(const ArchitectureModel& m, ResourceId r);
    [[nodiscard]] static ModelLocation location(const ArchitectureModel& m, LocationId p);

    /// "app:steer_cmd", "resource:ecu1", ... — the SARIF
    /// fullyQualifiedName and the text-format anchor.
    [[nodiscard]] std::string qualified_name() const;
};

// ---- diagnostics ----------------------------------------------------------

/// What a rule reports: the message and anchor, plus an optional fix-it
/// hint phrased as the operation that repairs the finding
/// (e.g. "transform::Expand('n7') with pattern C -> B(C)+A(C)").
struct Finding {
    std::string message;
    ModelLocation location;
    std::string fixit;
};

/// A finding stamped with its rule id and effective severity.
struct Diagnostic {
    std::string rule_id;
    Severity severity = Severity::Warning;
    std::string message;
    ModelLocation location;
    std::string fixit;
};

std::ostream& operator<<(std::ostream& os, const Diagnostic& d);

struct LintReport {
    std::vector<Diagnostic> diagnostics;

    [[nodiscard]] std::size_t count(Severity s) const noexcept;
    [[nodiscard]] std::size_t error_count() const noexcept { return count(Severity::Error); }
    [[nodiscard]] std::size_t warning_count() const noexcept { return count(Severity::Warning); }
    [[nodiscard]] std::size_t note_count() const noexcept { return count(Severity::Note); }
    /// Clean = no warnings and no errors (notes are allowed).
    [[nodiscard]] bool clean() const noexcept { return error_count() + warning_count() == 0; }
    [[nodiscard]] bool has(std::string_view rule_id) const noexcept;
};

// ---- rules ----------------------------------------------------------------

/// Shared per-run artifacts so rules do not recompute block detection or
/// the CCF analysis.
class LintContext {
public:
    explicit LintContext(const ArchitectureModel& m);

    [[nodiscard]] const ArchitectureModel& model() const noexcept { return model_; }
    [[nodiscard]] const std::vector<RedundantBlock>& blocks() const noexcept { return blocks_; }
    [[nodiscard]] const analysis::CcfReport& ccf() const noexcept { return ccf_; }

private:
    const ArchitectureModel& model_;
    std::vector<RedundantBlock> blocks_;
    analysis::CcfReport ccf_;
};

/// One row of the rule catalogue; `layers` names the layer(s) the rule
/// reasons about ("app", "mapping", "app+resource+physical", ...) for
/// the docs/lint.md catalogue table.
struct RuleInfo {
    std::string_view id;
    Severity default_severity = Severity::Warning;
    std::string_view layers;
    std::string_view summary;
    /// Appends the rule's findings; null for the rules that report
    /// validate()'s issues.
    void (*check)(const LintContext& ctx, std::vector<Finding>& out) = nullptr;
};

/// The built-in catalogue (see docs/lint.md), in stable order: first the
/// eleven rules that report validate()'s issues, in IssueCode order.
[[nodiscard]] std::span<const RuleInfo> rules() noexcept;
/// The catalogue row with this id, or null.
[[nodiscard]] const RuleInfo* find_rule(std::string_view id) noexcept;

// ---- configuration --------------------------------------------------------

/// Per-rule severity overrides, loadable from a JSON config file:
///
///   { "rules": { "ccf.shared-location-branch": "error",
///                "transform.reducible-pair":   "off" } }
///
/// Unknown rule ids are rejected (IoError): a typo silently disabling a
/// safety rule is itself a safety hazard.
struct LintConfig {
    std::map<std::string, Severity, std::less<>> overrides;

    [[nodiscard]] Severity effective(const RuleInfo& info) const noexcept;
};

/// Parses a config document against the rule catalogue.  Throws IoError
/// on a document that is not an object, on a top-level key other than
/// "rules", and on an unknown rule id or severity.
[[nodiscard]] LintConfig lint_config_from_json_text(std::string_view text);
/// Reads and parses a config file.
[[nodiscard]] LintConfig load_lint_config(const std::string& path);

// ---- running --------------------------------------------------------------

struct LintOptions {
    LintConfig config{};
};

/// Runs every catalogue rule that is not off and stamps findings with
/// their effective severities.  Diagnostic order is deterministic:
/// catalogue order, then each rule's own emission order.
[[nodiscard]] LintReport run_lint(const ArchitectureModel& m, const LintOptions& options = {});

}  // namespace asilkit::lint
