// Doc-drift guard: the metric and span catalogues in
// docs/observability.md are stable API, so this test greps the real
// source tree for emission sites and fails when the tables and the
// code disagree — in either direction.  A `*` in a documented id is a
// glob matching any run of characters.  The lint rule table in
// docs/lint.md is checked against lint::rules() the same way, and the
// search ledger quoted in docs/CLI.md against a run of the CLI.
//
// Emission sites recognised, in src/:
//   Registry::global().counter("id") / .gauge("id")
//   ObsSpan name("span", "cat");  trace_instant("span", "cat")
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "lint/lint.h"

#ifndef ASILKIT_SOURCE_DIR
#error "ASILKIT_SOURCE_DIR must point at the repository root"
#endif

namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/// All .cpp/.h files under `root` (relative to the repo).
std::vector<fs::path> source_files(const std::string& root) {
    std::vector<fs::path> files;
    const fs::path dir = fs::path(ASILKIT_SOURCE_DIR) / root;
    for (const fs::directory_entry& entry : fs::recursive_directory_iterator(dir)) {
        if (!entry.is_regular_file()) continue;
        const std::string ext = entry.path().extension().string();
        if (ext == ".cpp" || ext == ".h") files.push_back(entry.path());
    }
    return files;
}

void collect_matches(const std::string& text, const std::regex& re, unsigned group,
                     std::set<std::string>& out) {
    for (std::sregex_iterator it(text.begin(), text.end(), re), end; it != end; ++it) {
        out.insert((*it)[group].str());
    }
}

/// Metric ids emitted by src/.
std::set<std::string> emitted_metric_ids() {
    static const std::regex registry_re(R"((?:counter|gauge)\("([^"]+)\")");
    std::set<std::string> ids;
    for (const fs::path& file : source_files("src")) {
        collect_matches(read_file(file), registry_re, 1, ids);
    }
    return ids;
}

/// Span names emitted by src/.
std::set<std::string> emitted_span_names() {
    static const std::regex span_re(R"re(ObsSpan\s+\w+\("([^"]+)",\s*"[^"]+\")re");
    static const std::regex instant_re(R"re(trace_instant\("([^"]+)",\s*"[^"]+\")re");
    std::set<std::string> names;
    for (const fs::path& file : source_files("src")) {
        const std::string text = read_file(file);
        collect_matches(text, span_re, 1, names);
        collect_matches(text, instant_re, 1, names);
    }
    return names;
}

/// The text from `begin_heading` to the next `## ` heading.
std::string section(const std::string& doc, const std::string& begin_heading) {
    const std::size_t begin = doc.find(begin_heading);
    EXPECT_NE(begin, std::string::npos) << "missing section " << begin_heading;
    if (begin == std::string::npos) return {};
    std::size_t end = doc.find("\n## ", begin);
    if (end == std::string::npos) end = doc.size();
    return doc.substr(begin, end - begin);
}

/// Backticked tokens from the FIRST table cell of every row between
/// `begin_heading` and the next `## ` heading.  The first cell carries
/// the ids; later cells hold prose that may backtick unrelated code.
std::set<std::string> documented_tokens(const std::string& doc,
                                        const std::string& begin_heading) {
    static const std::regex token_re("`([^`]+)`");
    std::set<std::string> tokens;
    std::istringstream lines(section(doc, begin_heading));
    for (std::string line; std::getline(lines, line);) {
        if (line.empty() || line[0] != '|') continue;
        const std::size_t cell_end = line.find('|', 1);
        if (cell_end == std::string::npos) continue;
        const std::string cell = line.substr(1, cell_end - 1);
        collect_matches(cell, token_re, 1, tokens);
    }
    return tokens;
}

/// Glob match where `*` matches any run of characters.
bool glob_match(const std::string& pattern, const std::string& text) {
    std::string re;
    for (const char c : pattern) {
        if (c == '*') {
            re += ".*";
        } else if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
            re += c;
        } else {
            re += '\\';
            re += c;
        }
    }
    return std::regex_match(text, std::regex(re));
}

void expect_bidirectional(const std::set<std::string>& emitted,
                          const std::set<std::string>& documented,
                          const char* what) {
    for (const std::string& id : emitted) {
        bool found = false;
        for (const std::string& doc : documented) {
            if (glob_match(doc, id)) {
                found = true;
                break;
            }
        }
        EXPECT_TRUE(found) << what << " '" << id
                           << "' is emitted by the source but missing from "
                              "docs/observability.md";
    }
    for (const std::string& doc : documented) {
        bool live = false;
        for (const std::string& id : emitted) {
            if (glob_match(doc, id)) {
                live = true;
                break;
            }
        }
        EXPECT_TRUE(live) << what << " '" << doc
                          << "' is documented in docs/observability.md but no "
                             "longer emitted anywhere in src/";
    }
}

TEST(DocDrift, MetricCatalogueMatchesEmissionSites) {
    const std::string doc =
        read_file(fs::path(ASILKIT_SOURCE_DIR) / "docs" / "observability.md");
    expect_bidirectional(emitted_metric_ids(),
                         documented_tokens(doc, "## Metric catalogue"), "metric");
}

TEST(DocDrift, SpanCatalogueMatchesEmissionSites) {
    const std::string doc =
        read_file(fs::path(ASILKIT_SOURCE_DIR) / "docs" / "observability.md");
    expect_bidirectional(emitted_span_names(),
                         documented_tokens(doc, "## Span catalogue"), "span");
}

TEST(DocDrift, LintCatalogueMatchesRules) {
    // The docs/lint.md rule table lists lint::rules() in catalogue order,
    // each with its default severity and layers.
    const std::string doc = read_file(fs::path(ASILKIT_SOURCE_DIR) / "docs" / "lint.md");
    static const std::regex row_re(R"(^\| `([^`]+)` \| ([a-z]+) \| ([a-z+]+) \|)");
    std::vector<std::string> documented;
    std::istringstream lines(section(doc, "## Rule catalogue"));
    for (std::string line; std::getline(lines, line);) {
        std::smatch row;
        if (std::regex_search(line, row, row_re)) {
            documented.push_back(row[1].str() + " " + row[2].str() + " " + row[3].str());
        }
    }
    std::vector<std::string> catalogue;
    for (const asilkit::lint::RuleInfo& rule : asilkit::lint::rules()) {
        catalogue.push_back(std::string(rule.id) + " " +
                            std::string(asilkit::lint::to_string(rule.default_severity)) + " " +
                            std::string(rule.layers));
    }
    EXPECT_EQ(documented, catalogue);
}

/// The line of `text` that starts with `prefix`, or "" when none does.
std::string line_starting_with(const std::string& text, const std::string& prefix) {
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);) {
        if (line.starts_with(prefix)) return line;
    }
    return {};
}

TEST(DocDrift, CliSearchLedgerMatchesTheEcotwinDemo) {
    // docs/CLI.md quotes the counter ledger `search` prints on the
    // EcoTwin demo model.
    const std::string model =
        ::testing::TempDir() + "/doc_drift_ledger_" + std::to_string(::getpid()) + ".json";
    std::ostringstream out;
    std::ostringstream err;
    ASSERT_EQ(asilkit::cli::run_cli({"demo", "ecotwin", "-o", model}, out, err), 0) << err.str();
    out.str("");
    ASSERT_EQ(asilkit::cli::run_cli({"search", model}, out, err), 0) << err.str();
    const std::string doc = read_file(fs::path(ASILKIT_SOURCE_DIR) / "docs" / "CLI.md");
    for (const char* prefix : {"candidates        : ", "evaluations       : "}) {
        const std::string printed = line_starting_with(out.str(), prefix);
        ASSERT_FALSE(printed.empty()) << prefix;
        EXPECT_EQ(line_starting_with(doc, prefix), printed);
    }
}

/// The guard itself must not silently rot: both scans must keep finding
/// a healthy population of emission sites.
TEST(DocDrift, ScannersFindTheInstrumentation) {
    EXPECT_GE(emitted_metric_ids().size(), 30u);
    EXPECT_GE(emitted_span_names().size(), 20u);
}

}  // namespace
