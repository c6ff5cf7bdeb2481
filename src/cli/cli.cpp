#include "cli/cli.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>

#include "analysis/ccf.h"
#include "analysis/fmea.h"
#include "analysis/probability.h"
#include "analysis/simulation.h"
#include "analysis/tolerance.h"
#include "analysis/traceability.h"
#include "cost/cost_analysis.h"
#include "explore/advisor.h"
#include "explore/driver.h"
#include "explore/mapping_search.h"
#include "io/json.h"
#include "io/csv.h"
#include "io/dot.h"
#include "io/graphml.h"
#include "io/model_diff.h"
#include "io/model_json.h"
#include "engine/engine.h"
#include "lint/emit.h"
#include "lint/lint.h"
#include "model/validation.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "scenarios/ecotwin.h"
#include "scenarios/fig3.h"
#include "scenarios/longitudinal.h"
#include "transform/connect.h"
#include "transform/expand.h"
#include "transform/reduce.h"

namespace asilkit::cli {
namespace {

/// What follows an option on the command line.
enum class OptionKind : std::uint8_t {
    Flag,     ///< nothing: the option is a switch
    Integer,  ///< an unsigned decimal integer below 2^64, no sign
    Real,     ///< a finite decimal number
    Text,     ///< any token: file name, node list, format name, ...
};

struct OptionSpec {
    std::string_view name;
    OptionKind kind;
};

/// Every option asilkit_cli accepts, on any command (`-o` is `--out`).
/// parse_args refuses an option missing here and a value that does not
/// read as its kind, naming both, before any command runs.
constexpr std::array kOptions{
    OptionSpec{"all", OptionKind::Flag},
    OptionSpec{"approximate", OptionKind::Flag},
    OptionSpec{"branches", OptionKind::Integer},
    OptionSpec{"csv", OptionKind::Text},
    OptionSpec{"engine", OptionKind::Text},
    OptionSpec{"format", OptionKind::Text},
    OptionSpec{"help", OptionKind::Flag},
    OptionSpec{"hours", OptionKind::Real},
    OptionSpec{"is", OptionKind::Flag},
    OptionSpec{"is-bias", OptionKind::Real},
    OptionSpec{"is-max-order", OptionKind::Integer},
    OptionSpec{"layer", OptionKind::Text},
    OptionSpec{"max-nodes", OptionKind::Integer},
    OptionSpec{"max-order", OptionKind::Integer},
    OptionSpec{"merger", OptionKind::Text},
    OptionSpec{"metric", OptionKind::Text},
    OptionSpec{"metrics", OptionKind::Text},
    OptionSpec{"node", OptionKind::Text},
    OptionSpec{"nodes", OptionKind::Text},
    OptionSpec{"out", OptionKind::Text},
    OptionSpec{"profile", OptionKind::Text},
    OptionSpec{"profile-format", OptionKind::Text},
    OptionSpec{"rate-scale", OptionKind::Real},
    OptionSpec{"rules", OptionKind::Text},
    OptionSpec{"seed", OptionKind::Integer},
    OptionSpec{"strategy", OptionKind::Text},
    OptionSpec{"strict", OptionKind::Flag},
    OptionSpec{"stream-front", OptionKind::Text},
    OptionSpec{"threads", OptionKind::Integer},
    OptionSpec{"trace", OptionKind::Text},
    OptionSpec{"trials", OptionKind::Integer},
};

[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            const std::string& expected) {
    throw IoError("option --" + key + " expects " + expected + ", got '" + value + "'");
}

std::uint64_t parse_integer(const std::string& key, const std::string& value) {
    std::uint64_t n = 0;
    const char* end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, n);
    if (ec == std::errc::result_out_of_range) bad_value(key, value, "an integer below 2^64");
    if (ec != std::errc{} || ptr != end) bad_value(key, value, "a non-negative integer");
    return n;
}

double parse_real(const std::string& key, const std::string& value) {
    double x = 0.0;
    const char* end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, x);
    if (ec != std::errc{} || ptr != end || !std::isfinite(x)) {
        bad_value(key, value, "a finite number");
    }
    return x;
}

/// Parsed invocation: positionals plus the options of kOptions given,
/// with integer and real values already read.
struct Args {
    std::vector<std::string> positionals;
    std::map<std::string, std::string> options;  ///< text as given; "1" for a flag
    std::map<std::string, std::uint64_t> integers;
    std::map<std::string, double> reals;

    [[nodiscard]] bool has(const std::string& key) const { return options.contains(key); }
    [[nodiscard]] std::string get(const std::string& key, const std::string& fallback = "") const {
        if (auto it = options.find(key); it != options.end()) return it->second;
        return fallback;
    }
    /// Integer option `key` as T, or `fallback` when not given.
    template <typename T>
    [[nodiscard]] T integer(const std::string& key, T fallback) const {
        const auto it = integers.find(key);
        if (it == integers.end()) return fallback;
        if (!std::in_range<T>(it->second)) {
            bad_value(key, options.at(key),
                      "an integer up to " + std::to_string(std::numeric_limits<T>::max()));
        }
        return static_cast<T>(it->second);
    }
    /// Real option `key`, or `fallback` when not given.
    [[nodiscard]] double real(const std::string& key, double fallback) const {
        const auto it = reals.find(key);
        return it == reals.end() ? fallback : it->second;
    }
};

Args parse_args(const std::vector<std::string>& argv) {
    Args args;
    for (std::size_t i = 0; i < argv.size(); ++i) {
        const std::string& token = argv[i];
        if (!token.starts_with("--") && token != "-o") {
            args.positionals.push_back(token);
            continue;
        }
        const std::string key = token == "-o" ? "out" : token.substr(2);
        const auto spec = std::ranges::find(kOptions, std::string_view(key), &OptionSpec::name);
        if (spec == kOptions.end()) throw IoError("unknown option " + token);
        if (spec->kind == OptionKind::Flag) {
            args.options[key] = "1";
            continue;
        }
        if (i + 1 == argv.size()) throw IoError("option " + token + " needs a value");
        const std::string& value = argv[++i];
        args.options[key] = value;
        if (spec->kind == OptionKind::Integer) args.integers[key] = parse_integer(key, value);
        if (spec->kind == OptionKind::Real) args.reals[key] = parse_real(key, value);
    }
    return args;
}

DecompositionStrategy parse_strategy(const std::string& text) {
    if (text == "BB" || text == "bb") return DecompositionStrategy::BB;
    if (text == "AC" || text == "ac") return DecompositionStrategy::AC;
    if (text == "RND" || text == "rnd") return DecompositionStrategy::RND;
    throw IoError("unknown strategy '" + text + "' (expected BB, AC or RND)");
}

cost::CostMetric parse_metric(const std::string& text) {
    if (text == "1" || text.empty()) return cost::CostMetric::exponential_metric1();
    if (text == "2") return cost::CostMetric::exponential_metric2();
    if (text == "3") return cost::CostMetric::linear_metric3();
    throw IoError("unknown metric '" + text + "' (expected 1, 2 or 3)");
}

ArchitectureModel load_positional_model(const Args& args) {
    if (args.positionals.size() < 2) throw IoError("missing model file argument");
    return io::load_model(args.positionals[1]);
}

std::string require_out(const Args& args) {
    if (!args.has("out")) throw IoError("missing -o <output file>");
    return args.get("out");
}

int cmd_demo(const Args& args, std::ostream& out) {
    if (args.positionals.size() < 2) throw IoError("demo: missing scenario name");
    const std::string& name = args.positionals[1];
    ArchitectureModel m;
    if (name == "fig3") {
        m = scenarios::fig3_camera_gps_fusion();
    } else if (name == "fig3-ccf") {
        m = scenarios::fig3_with_shared_ecu_ccf();
    } else if (name == "ecotwin") {
        m = scenarios::ecotwin_lateral_control();
    } else if (name == "longitudinal") {
        m = scenarios::ecotwin_longitudinal_control();
    } else {
        throw IoError("unknown demo scenario '" + name +
                      "' (expected fig3, fig3-ccf, ecotwin or longitudinal)");
    }
    io::save_model(m, require_out(args));
    out << "wrote " << m.name() << " (" << m.app().node_count() << " nodes, "
        << m.resources().node_count() << " resources) to " << args.get("out") << "\n";
    return 0;
}

int cmd_validate(const Args& args, std::ostream& out) {
    const ArchitectureModel m = load_positional_model(args);
    const ValidationReport report = validate(m);
    out << m.name() << ": " << report.error_count() << " errors, " << report.warning_count()
        << " warnings\n";
    for (const ValidationIssue& issue : report.issues) out << "  " << issue << "\n";
    // --strict promotes warnings: a report that is not fully clean fails.
    if (args.has("strict")) return report.ok() ? 0 : 1;
    return report.error_count() == 0 ? 0 : 1;
}

/// Exit codes mirror severities so CI can distinguish outcomes: 0 =
/// clean (notes allowed), 3 = warnings present, 4 = errors present
/// (1/2 stay reserved for input/usage errors).
int cmd_lint(const Args& args, std::ostream& out) {
    const ArchitectureModel m = load_positional_model(args);
    lint::LintOptions options;
    if (args.has("rules")) options.config = lint::load_lint_config(args.get("rules"));
    const lint::LintReport report = lint::run_lint(m, options);

    const std::string format = args.get("format", "text");
    std::string text;
    if (format == "text") {
        text = lint::to_text(report, m.name());
    } else if (format == "json") {
        text = lint::to_json(report, m.name()).dump(2) + "\n";
    } else if (format == "sarif") {
        text = lint::to_sarif(report).dump(2) + "\n";
    } else {
        throw IoError("unknown format '" + format + "' (expected text, json or sarif)");
    }
    if (args.has("out")) {
        io::save_text_file(text, args.get("out"));
        out << "wrote " << format << " lint report to " << args.get("out") << "\n";
    } else {
        out << text;
    }
    if (report.error_count() > 0) return 4;
    if (report.warning_count() > 0) return 3;
    return 0;
}

int cmd_analyze(const Args& args, std::ostream& out) {
    const ArchitectureModel m = load_positional_model(args);
    analysis::ProbabilityOptions options;
    options.approximate = args.has("approximate");
    options.mission_hours = args.real("hours", options.mission_hours);
    // Through the engine, like every search, so the engine counters see
    // the call.
    engine::EvalEngine engine;
    const analysis::ProbabilityResult result = engine.analyze(m, options);
    const cost::CostMetric metric = parse_metric(args.get("metric", "1"));
    out << "model              : " << m.name() << "\n"
        << "application nodes  : " << m.app().node_count() << "\n"
        << "resources          : " << m.resources().node_count() << "\n"
        << "cost (" << metric.name() << "): " << cost::total_cost(m, metric) << "\n"
        << "fault tree         : " << result.ft_stats.dag_nodes << " nodes, "
        << result.ft_stats.paths << " paths\n"
        << "bdd                : " << result.bdd_nodes << " nodes over " << result.variables
        << " variables\n"
        << "P(system failure)  : " << result.failure_probability << " over "
        << options.mission_hours << " h\n";
    if (result.approximated_blocks > 0) {
        out << "approximated blocks: " << result.approximated_blocks << "\n";
    }
    for (const std::string& w : result.warnings) out << "warning: " << w << "\n";
    return 0;
}

/// Monte Carlo estimation of the top-event probability via the
/// vectorized SimEngine (docs/simulation.md).  Exit 0 always — the
/// estimate plus its CI is the product; judging it is the caller's job.
int cmd_simulate(const Args& args, std::ostream& out) {
    const ArchitectureModel m = load_positional_model(args);
    analysis::SimulationOptions options;
    options.trials = args.integer("trials", options.trials);
    options.seed = args.integer("seed", options.seed);
    options.mission_hours = args.real("hours", options.mission_hours);
    options.rate_scale = args.real("rate-scale", options.rate_scale);
    options.threads = args.integer("threads", options.threads);
    options.importance_sampling = args.has("is");
    options.is_bias = args.real("is-bias", options.is_bias);
    options.is_max_order = args.integer("is-max-order", options.is_max_order);
    const std::string engine = args.get("engine", "bitparallel");
    if (engine == "naive") {
        options.engine = analysis::SimEngineKind::Naive;
    } else if (engine == "bitparallel") {
        options.engine = analysis::SimEngineKind::BitParallel;
    } else {
        throw IoError("unknown engine '" + engine + "' (expected naive or bitparallel)");
    }

    const analysis::SimulationResult r = analysis::simulate_failure_probability(m, options);
    const std::string format = args.get("format", "text");
    if (format == "json") {
        io::Json doc = io::Json::object();
        doc["model"] = m.name();
        doc["engine"] = engine;
        doc["trials"] = r.trials;
        doc["failures"] = r.failures;
        doc["estimate"] = r.estimate;
        doc["std_error"] = r.std_error;
        doc["ci95_low"] = r.ci95_low;
        doc["ci95_high"] = r.ci95_high;
        doc["ess"] = r.ess;
        doc["importance_sampled"] = r.importance_sampled;
        doc["mission_hours"] = options.mission_hours;
        doc["rate_scale"] = options.rate_scale;
        out << doc.dump(2) << "\n";
    } else if (format == "text") {
        out << "model              : " << m.name() << "\n"
            << "engine             : " << engine
            << (r.importance_sampled ? " + importance sampling" : "") << "\n"
            << "trials             : " << r.trials << "\n"
            << "failures           : " << r.failures << "\n"
            << "P(system failure)  : " << r.estimate << " over " << options.mission_hours
            << " h\n"
            << "std error          : " << r.std_error << "\n"
            << "95% CI             : [" << r.ci95_low << ", " << r.ci95_high << "]\n"
            << "effective samples  : " << r.ess << "\n";
    } else {
        throw IoError("unknown format '" + format + "' (expected text or json)");
    }
    return 0;
}

int cmd_ccf(const Args& args, std::ostream& out) {
    const ArchitectureModel m = load_positional_model(args);
    const analysis::CcfReport report = analysis::analyze_ccf(m);
    if (report.independent()) {
        out << "no common cause faults: every decomposition is independent\n";
        return 0;
    }
    out << report.findings.size() << " finding(s):\n";
    for (const analysis::CcfFinding& f : report.findings) out << "  " << f << "\n";
    return 1;
}

int cmd_tolerance(const Args& args, std::ostream& out) {
    const ArchitectureModel m = load_positional_model(args);
    analysis::FaultToleranceOptions options;
    options.max_order = args.integer("max-order", options.max_order);
    const analysis::FaultToleranceReport report = analyze_fault_tolerance(m, options);
    out << "minimal cut order : " << report.min_cut_order << "\n"
        << "tolerated faults  : " << report.tolerated_faults << "\n";
    for (std::size_t order = 1; order < report.cut_sets_by_order.size(); ++order) {
        out << "cut sets, order " << order << " : " << report.cut_sets_by_order[order] << "\n";
    }
    out << "single points of failure:\n";
    for (const std::string& spof : report.single_points_of_failure) out << "  " << spof << "\n";
    return 0;
}

int cmd_trace(const Args& args, std::ostream& out) {
    const ArchitectureModel m = load_positional_model(args);
    const analysis::TraceabilityReport report = analysis::trace_requirements(m);
    for (const analysis::FsrStatus& status : report.requirements) {
        out << "  " << status << "\n";
        for (const std::string& node : status.under_implemented) {
            out << "    under-implemented: " << node << "\n";
        }
    }
    if (!report.untraced_nodes.empty()) {
        out << "  " << report.untraced_nodes.size() << " node(s) without an FSR\n";
    }
    return report.all_satisfied() ? 0 : 1;
}

int cmd_fmea(const Args& args, std::ostream& out) {
    const ArchitectureModel m = load_positional_model(args);
    analysis::FmeaOptions options;
    options.mission_hours = args.real("hours", options.mission_hours);
    for (const analysis::FmeaRow& row : analysis::fmea_report(m, options)) {
        out << "  " << row << "\n";
    }
    return 0;
}

int cmd_advise(const Args& args, std::ostream& out) {
    const ArchitectureModel m = load_positional_model(args);
    explore::AdvisorOptions options;
    options.strategy = parse_strategy(args.get("strategy", "BB"));
    options.branches = args.integer("branches", options.branches);
    options.probability.approximate = true;
    for (const explore::ExpansionAdvice& advice : explore::advise_expansions(m, options)) {
        out << "  " << advice << "\n";
    }
    return 0;
}

int cmd_expand(const Args& args, std::ostream& out) {
    ArchitectureModel m = load_positional_model(args);
    if (!args.has("node")) throw IoError("expand: missing --node NAME");
    const NodeId n = m.find_app_node(args.get("node"));
    if (!n.valid()) throw IoError("no application node named '" + args.get("node") + "'");
    transform::ExpandOptions options;
    options.strategy = parse_strategy(args.get("strategy", "BB"));
    options.branches = args.integer("branches", options.branches);
    const transform::ExpandResult result = transform::expand(m, n, options);
    io::save_model(m, require_out(args));
    out << "expanded '" << args.get("node") << "' with " << to_string(result.pattern) << " into "
        << result.branches.size() << " branches; wrote " << args.get("out") << "\n";
    return 0;
}

int cmd_connect(const Args& args, std::ostream& out) {
    ArchitectureModel m = load_positional_model(args);
    std::size_t merges = 0;
    if (args.has("all")) {
        transform::reduce_all(m);
        merges = transform::connect_all(m);
    } else {
        if (!args.has("merger")) throw IoError("connect: need --merger NAME or --all");
        const NodeId merger = m.find_app_node(args.get("merger"));
        if (!merger.valid()) throw IoError("no node named '" + args.get("merger") + "'");
        transform::connect(m, merger);
        merges = 1;
    }
    io::save_model(m, require_out(args));
    out << "performed " << merges << " connect(s); wrote " << args.get("out") << "\n";
    return 0;
}

int cmd_reduce(const Args& args, std::ostream& out) {
    ArchitectureModel m = load_positional_model(args);
    const std::size_t reductions = transform::reduce_all(m);
    io::save_model(m, require_out(args));
    out << "performed " << reductions << " reduction(s); wrote " << args.get("out") << "\n";
    return 0;
}

/// One NDJSON line per front change: the anytime contract's streamed
/// output.  Each line is a complete JSON object, so a consumer can
/// follow the file while the search still runs.
class FrontStream {
public:
    explicit FrontStream(const std::string& path) : stream_(path) {
        if (!stream_) throw IoError("cannot open '" + path + "' for writing");
    }
    void write(const explore::TradeoffPoint& p, std::size_t front_size) {
        io::Json line = io::Json::object();
        line["label"] = p.label;
        line["cost"] = p.cost;
        line["failure_probability"] = p.failure_probability;
        line["front_size"] = static_cast<std::uint64_t>(front_size);
        stream_ << line.dump() << "\n";
        stream_.flush();  // a crashed/killed run still leaves every line behind
        ++lines_;
    }
    [[nodiscard]] std::size_t lines() const noexcept { return lines_; }

private:
    std::ofstream stream_;
    std::size_t lines_ = 0;
};

int cmd_search(const Args& args, std::ostream& out) {
    ArchitectureModel m = load_positional_model(args);
    explore::MappingSearchOptions options;
    options.metric = parse_metric(args.get("metric", "1"));
    options.probability.approximate = args.has("approximate");
    options.probability.mission_hours =
        args.real("hours", options.probability.mission_hours);
    options.max_nodes_per_resource =
        args.integer("max-nodes", options.max_nodes_per_resource);
    std::optional<FrontStream> stream;
    if (args.has("stream-front")) {
        stream.emplace(args.get("stream-front"));
        options.on_front_update = [&](const explore::TradeoffPoint& p, std::size_t front_size) {
            stream->write(p, front_size);
        };
    }
    const explore::MappingSearchResult r = explore::search_mapping(m, options);
    out << "merges            : " << r.merges << " over " << r.iterations << " iteration(s)"
        << (r.reached_local_optimum ? " (local optimum)" : "") << "\n"
        << "cost              : " << r.cost_before << " -> " << r.cost_after << "\n"
        << "P(system failure) : " << r.probability_before << " -> " << r.probability_after << "\n"
        << "candidates        : " << r.candidates << " (" << r.bound_rejections
        << " bound-pruned, " << r.candidates - r.bound_rejections << " evaluated)\n"
        << "evaluations       : " << r.evaluations << " (1 initial + "
        << r.candidates - r.bound_rejections << " candidates; " << r.eval_cache_hits
        << " tree hits, " << r.eval_cache_misses << " computed)\n"
        << "front             : " << r.front.size() << " point(s), " << r.front_updates
        << " update(s)\n";
    if (stream) {
        out << "front stream written to " << args.get("stream-front") << " (" << stream->lines()
            << " lines)\n";
    }
    if (args.has("out")) {
        io::save_model(m, args.get("out"));
        out << "optimized model written to " << args.get("out") << "\n";
    }
    return 0;
}

int cmd_explore(const Args& args, std::ostream& out) {
    const ArchitectureModel m = load_positional_model(args);
    if (!args.has("nodes")) throw IoError("explore: missing --nodes a,b,c");
    std::vector<std::string> nodes;
    std::stringstream ss(args.get("nodes"));
    for (std::string item; std::getline(ss, item, ',');) {
        if (!item.empty()) nodes.push_back(item);
    }
    explore::ExplorationOptions options;
    options.strategy = parse_strategy(args.get("strategy", "BB"));
    options.metric = parse_metric(args.get("metric", "1"));
    options.probability.approximate = true;
    std::optional<FrontStream> stream;
    if (args.has("stream-front")) {
        stream.emplace(args.get("stream-front"));
        options.on_front_update = [&](const explore::TradeoffPoint& p, std::size_t front_size) {
            stream->write(p, front_size);
        };
    }
    const explore::ExplorationResult result = explore::run_exploration(m, nodes, options);
    for (const explore::TradeoffPoint& p : result.curve.points) out << "  " << p << "\n";
    if (stream) {
        out << "front stream written to " << args.get("stream-front") << " (" << stream->lines()
            << " lines)\n";
    }
    if (args.has("csv")) {
        io::CsvWriter csv({"label", "cost", "failure_probability"});
        for (const explore::TradeoffPoint& p : result.curve.points) {
            csv.add_row({p.label, io::CsvWriter::number(p.cost),
                         io::CsvWriter::number(p.failure_probability)});
        }
        csv.save(args.get("csv"));
        out << "curve written to " << args.get("csv") << "\n";
    }
    if (args.has("out")) {
        io::save_model(result.final_model, args.get("out"));
        out << "final model written to " << args.get("out") << "\n";
    }
    return 0;
}

int cmd_export(const Args& args, std::ostream& out) {
    const ArchitectureModel m = load_positional_model(args);
    const std::string layer = args.get("layer", "app");
    const std::string format = args.get("format", "dot");
    std::string text;
    if (format == "graphml") {
        if (layer == "app") {
            text = io::app_graph_to_graphml(m);
        } else if (layer == "resources") {
            text = io::resource_graph_to_graphml(m);
        } else {
            throw IoError("graphml export supports layers: app, resources");
        }
    } else if (format == "dot") {
        if (layer == "app") {
            text = io::app_graph_to_dot(m);
        } else if (layer == "resources") {
            text = io::resource_graph_to_dot(m);
        } else if (layer == "physical") {
            text = io::physical_graph_to_dot(m);
        } else if (layer == "ftree") {
            text = io::fault_tree_to_dot(ftree::build_fault_tree(m).tree);
        } else {
            throw IoError("unknown layer '" + layer +
                          "' (expected app, resources, physical, ftree)");
        }
    } else {
        throw IoError("unknown format '" + format + "' (expected dot or graphml)");
    }
    io::save_text_file(text, require_out(args));
    out << "wrote " << layer << " graph (" << format << ") to " << args.get("out") << "\n";
    return 0;
}

int cmd_diff(const Args& args, std::ostream& out) {
    if (args.positionals.size() < 3) throw IoError("diff: need two model files");
    const ArchitectureModel before = io::load_model(args.positionals[1]);
    const ArchitectureModel after = io::load_model(args.positionals[2]);
    const io::ModelDiff diff = io::diff_models(before, after);
    out << diff;
    return diff.empty() ? 0 : 1;
}

int dispatch(const std::string& command, const Args& parsed, std::ostream& out,
             std::ostream& err) {
    if (command == "demo") return cmd_demo(parsed, out);
    if (command == "validate") return cmd_validate(parsed, out);
    if (command == "lint") return cmd_lint(parsed, out);
    if (command == "analyze") return cmd_analyze(parsed, out);
    if (command == "simulate") return cmd_simulate(parsed, out);
    if (command == "ccf") return cmd_ccf(parsed, out);
    if (command == "tolerance") return cmd_tolerance(parsed, out);
    if (command == "trace") return cmd_trace(parsed, out);
    if (command == "fmea") return cmd_fmea(parsed, out);
    if (command == "advise") return cmd_advise(parsed, out);
    if (command == "expand") return cmd_expand(parsed, out);
    if (command == "connect") return cmd_connect(parsed, out);
    if (command == "reduce") return cmd_reduce(parsed, out);
    if (command == "search") return cmd_search(parsed, out);
    if (command == "explore") return cmd_explore(parsed, out);
    if (command == "export") return cmd_export(parsed, out);
    if (command == "diff") return cmd_diff(parsed, out);
    err << "unknown command '" << command << "'\n" << usage();
    return 2;
}

/// `--profile-format`, checked before any file is opened.
std::string profile_format(const Args& args) {
    std::string format = args.get("profile-format", "text");
    if (format != "text" && format != "json" && format != "collapsed") {
        throw IoError("unknown profile format '" + format +
                      "' (expected text, json or collapsed)");
    }
    return format;
}

/// The global observability options, available on every command:
/// `--trace FILE`, `--metrics FILE` and `--profile FILE` with
/// `--profile-format`.  The constructor opens every requested file, so
/// an unwritable path fails the run before the command starts;
/// finish() fills them when the command ends, error path included.
/// All three are files because a command's stdout may itself be a
/// document (`lint --format json`, `simulate --format json`).
class ObsSession {
public:
    explicit ObsSession(const Args& args)
        : profile_format_(profile_format(args)),
          profile_(open(args, "profile")),
          trace_(open(args, "trace")),
          metrics_(open(args, "metrics")) {
        if (traced()) obs::start_tracing();
    }

    /// Stops tracing and writes every requested file.  The profile comes
    /// first: it folds a copy of the span buffers, which the trace
    /// export then drains.  Throws IoError naming the first file whose
    /// write failed, after trying them all.
    void finish() {
        if (traced()) obs::stop_tracing();
        std::string failed;
        const auto write = [&failed](Output& output, const std::string& text) {
            output.file << text << std::flush;
            if (!output.file && failed.empty()) failed = output.path;
        };
        if (profile_.file.is_open()) {
            const obs::SpanProfile profile = obs::profile_current_trace();
            write(profile_, profile_format_ == "json"        ? profile.to_json() + "\n"
                            : profile_format_ == "collapsed" ? profile.to_collapsed()
                                                             : profile.to_text());
        }
        if (trace_.file.is_open()) write(trace_, obs::trace_to_json());
        if (metrics_.file.is_open()) {
            write(metrics_, obs::Registry::global().snapshot().to_json() + "\n");
        }
        if (!failed.empty()) throw IoError("write to '" + failed + "' failed");
    }

private:
    struct Output {
        std::string path;
        std::ofstream file;  ///< closed when the option was not given
    };

    /// A profile is folded from span events, so it traces the run too.
    [[nodiscard]] bool traced() const {
        return profile_.file.is_open() || trace_.file.is_open();
    }

    static Output open(const Args& args, const std::string& key) {
        Output output;
        if (!args.has(key)) return output;
        output.path = args.get(key);
        output.file.open(output.path, std::ios::binary);
        if (!output.file) throw IoError("cannot open '" + output.path + "' for writing");
        return output;
    }

    std::string profile_format_;
    Output profile_;
    Output trace_;
    Output metrics_;
};

}  // namespace

std::string usage() {
    return "usage: asilkit_cli <command> [arguments]\n"
           "\n"
           "commands:\n"
           "  demo <fig3|fig3-ccf|ecotwin|longitudinal> -o model.json\n"
           "  validate  model.json [--strict]\n"
           "  lint      model.json [--format text|json|sarif] [--rules config.json]\n"
           "            [-o report]   (exit: 0 clean, 3 warnings, 4 errors)\n"
           "  analyze   model.json [--approximate] [--hours H] [--metric 1|2|3]\n"
           "  simulate  model.json [--trials N] [--seed S] [--engine naive|bitparallel]\n"
           "            [--threads N] [--is] [--is-bias Q] [--is-max-order K]\n"
           "            [--hours H] [--rate-scale X] [--format text|json]\n"
           "  ccf       model.json\n"
           "  tolerance model.json [--max-order K]\n"
           "  trace     model.json\n"
           "  fmea      model.json [--hours H]\n"
           "  advise    model.json [--strategy BB|AC|RND] [--branches N]\n"
           "  expand    model.json --node NAME [--strategy S] [--branches N] -o out.json\n"
           "  connect   model.json [--merger NAME | --all] -o out.json\n"
           "  reduce    model.json -o out.json\n"
           "  search    model.json [--metric M] [--max-nodes N] [--hours H]\n"
           "            [--approximate] [--stream-front front.ndjson]\n"
           "            [-o optimized.json]\n"
           "  explore   model.json --nodes a,b,c [--strategy S] [--metric M]\n"
           "            [--csv curve.csv] [--stream-front front.ndjson] [-o final.json]\n"
           "  export    model.json --layer app|resources|physical|ftree\n"
           "            [--format dot|graphml] -o out.dot\n"
           "  diff      before.json after.json\n"
           "\n"
           "observability (any command; each file is written when the command ends):\n"
           "  --trace out.json         write a Chrome/Perfetto trace of the run\n"
           "  --metrics out.json       write a metrics-registry snapshot\n"
           "  --profile out.txt        write the run's span profile\n"
           "  --profile-format F       profile as text (default), json or collapsed\n"
           "                           (folded stacks for flamegraph.pl)\n";
}

int run_cli(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
    std::optional<ObsSession> obs_session;
    int code = 1;
    try {
        const Args parsed = parse_args(args);
        if (parsed.positionals.empty() || parsed.has("help")) {
            out << usage();
            return parsed.positionals.empty() && !parsed.has("help") ? 2 : 0;
        }
        obs_session.emplace(parsed);
        code = dispatch(parsed.positionals.front(), parsed, out, err);
    } catch (const std::exception& e) {
        err << "error: " << e.what() << "\n";
    }
    // A failed command still leaves its telemetry behind.
    if (obs_session) {
        try {
            obs_session->finish();
        } catch (const std::exception& e) {
            err << "error: " << e.what() << "\n";
            code = 1;
        }
    }
    return code;
}

}  // namespace asilkit::cli
