// Shared helpers for the report programs: every bench binary prints the
// table/figure it regenerates (paper value next to measured value where
// the paper states one) and exits 0.
#pragma once

#include <cstdio>
#include <string>

namespace asilkit::bench {

inline void heading(const std::string& title) {
    std::printf("\n=== %s ===\n", title.c_str());
}

inline void row(const std::string& label, const std::string& value) {
    std::printf("  %-46s %s\n", label.c_str(), value.c_str());
}

inline void row(const std::string& label, double value) {
    std::printf("  %-46s %.6g\n", label.c_str(), value);
}

/// "label: paper=X measured=Y" comparison row.
inline void compare(const std::string& label, const std::string& paper, double measured) {
    std::printf("  %-34s paper=%-12s measured=%.6g\n", label.c_str(), paper.c_str(), measured);
}

inline void compare(const std::string& label, const std::string& paper,
                    const std::string& measured) {
    std::printf("  %-34s paper=%-12s measured=%s\n", label.c_str(), paper.c_str(),
                measured.c_str());
}

inline void note(const std::string& text) { std::printf("  %s\n", text.c_str()); }

}  // namespace asilkit::bench

/// The program's main: prints the report.
#define ASILKIT_BENCH_MAIN(print_report) \
    int main() {                         \
        print_report();                  \
        return 0;                        \
    }
