// Cross-module property tests on randomized inputs (seeded, deterministic):
//   * model-derived fault trees evaluate exactly (BDD == brute force),
//   * JSON round trips preserve the canonical tree and P to the bit,
//   * raising a resource's failure rate never lowers P,
//   * pure redundancy (free management hardware) never hurts,
//   * the Section V approximation never overestimates and stays tight,
//   * the malformed-input surface of the JSON parser never crashes.
#include <gtest/gtest.h>

#include <random>

#include "analysis/probability.h"
#include "bdd/from_fault_tree.h"
#include "ftree/builder.h"
#include "ftree/fault_tree.h"
#include "helpers.h"
#include "io/json.h"
#include "io/model_json.h"
#include "model/failure_rates.h"
#include "model/validation.h"
#include "scenarios/synthetic.h"
#include "transform/expand.h"

namespace asilkit {
namespace {

scenarios::SyntheticOptions small_options(std::uint32_t seed) {
    scenarios::SyntheticOptions options;
    options.seed = seed;
    options.sensors = 2;
    options.layers = 2;
    options.width = 2;
    return options;
}

class ModelProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ModelProperty, ModelFaultTreesEvaluateExactly) {
    // Fault trees generated from real models have DAG sharing patterns
    // (shared locations, shared buses) that random trees do not; check
    // the BDD against brute force on those too.
    ArchitectureModel m = scenarios::synthetic_model(small_options(GetParam()));
    const ftree::FtBuildResult ft = ftree::build_fault_tree(m);
    if (ft.tree.basic_events().size() > 20) GTEST_SKIP() << "too many events for brute force";
    // Raise rates so brute-force sums are numerically meaningful: the
    // resources' through a rate table, the locations' on the model.
    ftree::FtBuildOptions options;
    for (ResourceKind kind : kAllResourceKinds) {
        for (Asil a : kAllAsilLevels) {
            options.rates.set_rate(kind, a, 0.05 + 0.01 * asil_value(a));
        }
    }
    testing::set_location_lambdas(m, 0.02);
    const ftree::FtBuildResult hot = ftree::build_fault_tree(m, options);
    const double exact = analysis::fault_tree_probability(hot.tree);
    const double brute = testing::brute_force_probability(hot.tree);
    EXPECT_NEAR(exact, brute, 1e-9) << "seed " << GetParam();
}

TEST_P(ModelProperty, JsonRoundTripPreservesAnalysis) {
    // Save -> load through the JSON text: numbers are written with 17
    // significant digits, so every rate survives to the bit and the
    // reloaded model has the same canonical tree and the same P.
    const ArchitectureModel m = scenarios::synthetic_model(small_options(GetParam()));
    const ArchitectureModel reloaded =
        io::model_from_json(io::Json::parse(io::to_json(m).dump()));
    EXPECT_EQ(analysis::analyze_failure_probability(m).failure_probability,
              analysis::analyze_failure_probability(reloaded).failure_probability)
        << "seed " << GetParam();
    EXPECT_EQ(ftree::canonical_form(ftree::build_fault_tree(m).tree).structural_hash(),
              ftree::canonical_form(ftree::build_fault_tree(reloaded).tree).structural_hash())
        << "seed " << GetParam();
    EXPECT_EQ(validate(m).error_count(), validate(reloaded).error_count());
    // Double round trip is byte-stable (canonical key order).
    EXPECT_EQ(io::to_json(reloaded).dump(), io::to_json(io::model_from_json(io::to_json(m))).dump());
}

TEST_P(ModelProperty, RaisingAResourceRateNeverLowersProbability) {
    // Generated fault trees are coherent (AND/OR only), so P is monotone
    // in every basic-event rate: doubling one resource's rate can only
    // raise it or leave it unchanged.
    const ArchitectureModel m = scenarios::synthetic_model(small_options(GetParam()));
    const double base = analysis::analyze_failure_probability(m).failure_probability;
    for (const ResourceId r : m.used_resources()) {
        ArchitectureModel raised = m;
        raised.resources().node(r).lambda_override =
            2.0 * FailureRates{}.resource_rate(m.resources().node(r));
        EXPECT_GE(analysis::analyze_failure_probability(raised).failure_probability, base)
            << "seed " << GetParam() << ", resource " << m.resources().node(r).name;
    }
}

TEST_P(ModelProperty, RaisingALocationRateNeverLowersProbability) {
    // The same monotonicity for location events.  Synthetic models place
    // every resource in one of 3 zones, so each location event is shared
    // by many gates — the case where a wrong sharing treatment would show.
    const ArchitectureModel m = scenarios::synthetic_model(small_options(GetParam()));
    const double base = analysis::analyze_failure_probability(m).failure_probability;
    for (const LocationId p : m.physical().node_ids()) {
        ArchitectureModel raised = m;
        raised.physical().node(p).lambda = 2.0 * m.physical().node(p).lambda;
        EXPECT_GE(analysis::analyze_failure_probability(raised).failure_probability, base)
            << "seed " << GetParam() << ", location " << m.physical().node(p).name;
    }
}

TEST_P(ModelProperty, FreeManagementMakesFunctionalExpansionAlwaysBeneficial) {
    // With zero-rate splitters/mergers and zero-rate locations, pure
    // 2-way redundancy of a FUNCTIONAL node can only remove probability
    // mass: P(after) <= P(before).  (Communication expansion is excluded:
    // it inserts c_pre/c_post nodes at the original level, which is real
    // series overhead, not management.)
    const std::uint32_t seed = GetParam();
    ArchitectureModel base = scenarios::synthetic_model(small_options(seed));
    testing::set_location_lambdas(base, 0.0);
    analysis::ProbabilityOptions options;
    for (Asil a : kAllAsilLevels) {
        options.rates.set_rate(ResourceKind::Splitter, a, 0.0);
        options.rates.set_rate(ResourceKind::Merger, a, 0.0);
    }
    const double before = analysis::analyze_failure_probability(base, options).failure_probability;
    for (NodeId n : base.app().node_ids()) {
        const AppNode& node = base.app().node(n);
        if (node.kind != NodeKind::Functional) continue;
        if (node.asil.level == Asil::QM) continue;
        if (base.app().in_degree(n) < 1 || base.app().out_degree(n) < 1) continue;
        ArchitectureModel trial = base;
        transform::expand(trial, n);
        testing::set_location_lambdas(trial, 0.0);  // the branches' new locations too
        const double after =
            analysis::analyze_failure_probability(trial, options).failure_probability;
        EXPECT_LE(after, before + 1e-18) << "seed " << seed << " node " << node.name;
    }
}

TEST_P(ModelProperty, ApproximationNeverOverestimates) {
    const std::uint32_t seed = GetParam();
    ArchitectureModel m = scenarios::synthetic_model(small_options(seed));
    // Expand the first expandable functional node to create a block.
    for (NodeId n : m.app().node_ids()) {
        const AppNode& node = m.app().node(n);
        if (node.kind == NodeKind::Functional && m.app().in_degree(n) >= 1 &&
            m.app().out_degree(n) >= 1) {
            transform::expand(m, n);
            break;
        }
    }
    analysis::ProbabilityOptions exact_options;
    analysis::ProbabilityOptions approx_options;
    approx_options.approximate = true;
    const double exact =
        analysis::analyze_failure_probability(m, exact_options).failure_probability;
    const double approx =
        analysis::analyze_failure_probability(m, approx_options).failure_probability;
    EXPECT_LE(approx, exact * (1.0 + 1e-12)) << "seed " << seed;
    EXPECT_GT(approx, 0.9 * exact) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelProperty, ::testing::Range(1u, 13u));

TEST(ParserRobustness, MutatedDocumentsNeverCrash) {
    // Take a valid model document and apply random byte mutations; the
    // parser must either succeed or throw IoError — never crash or hang.
    const std::string valid = io::to_json(scenarios::synthetic_model({})).dump();
    std::mt19937 rng(99);
    for (int trial = 0; trial < 300; ++trial) {
        std::string mutated = valid;
        const std::size_t edits = 1 + rng() % 5;
        for (std::size_t e = 0; e < edits; ++e) {
            const std::size_t pos = rng() % mutated.size();
            switch (rng() % 3) {
                case 0: mutated[pos] = static_cast<char>(rng() % 256); break;
                case 1: mutated.erase(pos, 1 + rng() % 3); break;
                default: mutated.insert(pos, 1, static_cast<char>('!' + rng() % 90)); break;
            }
            if (mutated.empty()) mutated.push_back('x');
        }
        try {
            const io::Json parsed = io::Json::parse(mutated);
            // If it still parses, loading may also fail cleanly.
            try {
                (void)io::model_from_json(parsed);
            } catch (const Error&) {
            }
        } catch (const Error&) {
            // expected for malformed documents
        }
    }
    SUCCEED();
}

TEST(ParserRobustness, DeeplyNestedDocumentParses) {
    std::string doc;
    constexpr int kDepth = 2000;
    for (int i = 0; i < kDepth; ++i) doc += '[';
    doc += "1";
    for (int i = 0; i < kDepth; ++i) doc += ']';
    const io::Json parsed = io::Json::parse(doc);
    EXPECT_TRUE(parsed.is_array());
}

}  // namespace
}  // namespace asilkit
