// Structural and safety validation of an architecture model.
//
// Validation is advisory: it returns a report instead of throwing, because
// intermediate states during a transformation sequence are allowed to be
// imperfect (e.g. before mapping optimisation), and because several checks
// are warnings by the paper's own reading (an under-implemented ASIL is a
// design smell the explorer visualises, not a programming error).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "model/architecture.h"

namespace asilkit {

enum class IssueSeverity : std::uint8_t { Warning, Error };

enum class IssueCode : std::uint8_t {
    UnmappedNode,          ///< application node with no resource
    IncompatibleMapping,   ///< node kind cannot run on resource kind
    UnderImplementedAsil,  ///< effective ASIL below the requirement level
    UnplacedResource,      ///< resource with no physical location
    BadSplitterDegree,     ///< splitter without >=1 input and >=2 outputs
    BadMergerDegree,       ///< merger without >=2 inputs and >=1 output
    IllFormedBlock,        ///< redundant block structure broken
    InvalidDecomposition,  ///< block ASIL sum below the inherited level
    UnreachableActuator,   ///< actuator not fed by any sensor
    DanglingSensor,        ///< sensor with no path to any actuator
    DuplicateName,         ///< two application nodes, resources or locations share a name
};

[[nodiscard]] std::string_view to_string(IssueCode c) noexcept;
[[nodiscard]] std::string_view to_string(IssueSeverity s) noexcept;

struct ValidationIssue {
    IssueSeverity severity = IssueSeverity::Warning;
    IssueCode code = IssueCode::UnmappedNode;
    std::string message;
    /// The application node the issue is about (a block's merger for
    /// IllFormedBlock and InvalidDecomposition); invalid for
    /// UnplacedResource, whose anchor is `resource`.  A DuplicateName
    /// issue is anchored at the first element of the name: `node`,
    /// `resource` or `location`, the others invalid.
    NodeId node;
    ResourceId resource;
    LocationId location;
};

std::ostream& operator<<(std::ostream& os, const ValidationIssue& issue);

struct ValidationReport {
    std::vector<ValidationIssue> issues;

    [[nodiscard]] bool ok() const noexcept { return issues.empty(); }
    [[nodiscard]] std::size_t error_count() const noexcept;
    [[nodiscard]] std::size_t warning_count() const noexcept;
    [[nodiscard]] bool has(IssueCode c) const noexcept;
};

/// Runs every check; see IssueCode for the list.
[[nodiscard]] ValidationReport validate(const ArchitectureModel& m);

/// Throws ModelError with a combined message if validate() reports errors.
void validate_or_throw(const ArchitectureModel& m);

}  // namespace asilkit
