// Architecture-model <-> JSON serialization.
//
// The on-disk schema is positional: elements are arrays in export order
// and cross-references (mappings, edges) use array indices, so a model
// that lived through erasures serializes densely and re-imports with
// fresh ids.  Round-tripping preserves everything the analyses consume:
// names, kinds, ASIL tags, lambdas, environments, edges, and both
// mappings.
#pragma once

#include <string>

#include "io/json.h"
#include "model/architecture.h"

namespace asilkit::io {

[[nodiscard]] Json to_json(const ArchitectureModel& m);

/// Throws IoError naming the field on a malformed document, including a
/// resource or location name that an earlier element of the same array
/// already carries (each is one basic event, identified by its name).
[[nodiscard]] ArchitectureModel model_from_json(const Json& j);

void save_model(const ArchitectureModel& m, const std::string& path);
[[nodiscard]] ArchitectureModel load_model(const std::string& path);

}  // namespace asilkit::io
