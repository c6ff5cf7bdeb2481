// Fig. 2: the ISO 26262 ASIL decomposition pattern catalogue.
//
// Regenerates the catalogue and checks the sum-rule invariant on every
// pattern.
#include "bench_util.h"

#include "core/decomposition.h"

using namespace asilkit;

namespace {

void print_report() {
    bench::heading("Fig. 2: ASIL decomposition patterns");
    for (Asil parent : {Asil::D, Asil::C, Asil::B, Asil::A}) {
        std::printf("  %s:\n", to_long_string(parent).c_str());
        for (const DecompositionPattern& p : decompositions_of(parent)) {
            std::printf("    %s   (sum rule: %d + %d >= %d)\n", to_string(p).c_str(),
                        asil_value(p.left), asil_value(p.right), asil_value(p.parent));
        }
    }
    bench::heading("Strategy selections");
    for (DecompositionStrategy s :
         {DecompositionStrategy::BB, DecompositionStrategy::AC}) {
        for (Asil parent : {Asil::D, Asil::C, Asil::B, Asil::A}) {
            bench::row(std::string(to_string(s)) + " on " + std::string(to_string(parent)),
                       to_string(select_pattern(parent, s)));
        }
    }
}

}  // namespace

ASILKIT_BENCH_MAIN(print_report)
