// Exception hierarchy for asilkit.
//
// Errors are reported by exceptions per the library-wide convention:
// constructors establish invariants, operations that cannot meet their
// postcondition throw.  All asilkit exceptions derive from Error so that
// callers can catch the library's failures in one clause.
#pragma once

#include <charconv>
#include <stdexcept>
#include <string>

namespace asilkit {

/// Root of all asilkit exceptions.
class Error : public std::runtime_error {
public:
    explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A model is structurally ill-formed (dangling id, unmapped node,
/// kind-mismatch, ...).
class ModelError : public Error {
public:
    explicit ModelError(const std::string& what) : Error("model error: " + what) {}
};

/// A transformation's precondition does not hold (e.g. Connect()'s four
/// conditions, or an Expand() with an invalid decomposition pattern).
class TransformError : public Error {
public:
    explicit TransformError(const std::string& what) : Error("transform error: " + what) {}
};

/// An analysis cannot be carried out on the given input (e.g. probability
/// evaluation over an empty fault tree).
class AnalysisError : public Error {
public:
    explicit AnalysisError(const std::string& what) : Error("analysis error: " + what) {}
};

/// Serialization / parsing failures.
class IoError : public Error {
public:
    explicit IoError(const std::string& what) : Error("io error: " + what) {}
};

/// Shortest text that reads back as `d`, for error messages (1e-09,
/// where std::to_string prints 0.000000).
[[nodiscard]] inline std::string number_text(double d) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, d).ptr);
}

}  // namespace asilkit
