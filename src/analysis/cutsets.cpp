#include "analysis/cutsets.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "bdd/from_fault_tree.h"
#include "core/hash.h"
#include "obs/trace.h"

namespace asilkit::analysis {
namespace {

/// Pads a row past its last event.  It is above every event index, so a
/// padded row stays sorted.
constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

/// A family of cut sets as flat rows of one fixed width: row i holds
/// cells i * width to (i + 1) * width - 1, its events ascending, then
/// kNone up to the width.
using Rows = std::vector<std::uint32_t>;

/// Writes the union of the sorted rows `a` and `b` to `out`; false when
/// the union has more than `width` events.
bool merge_rows(const std::uint32_t* a, const std::uint32_t* b, std::uint32_t* out,
                std::size_t width) noexcept {
    std::size_t i = 0;
    std::size_t j = 0;
    std::size_t k = 0;
    for (;;) {
        const std::uint32_t x = i < width ? a[i] : kNone;
        const std::uint32_t y = j < width ? b[j] : kNone;
        const std::uint32_t v = std::min(x, y);
        if (v == kNone) break;
        if (k == width) return false;
        out[k++] = v;
        i += x == v ? 1 : 0;
        j += y == v ? 1 : 0;
    }
    std::fill(out + k, out + width, kNone);
    return true;
}

/// Number of events in a row.
std::size_t row_order(const std::uint32_t* row, std::size_t width) noexcept {
    return static_cast<std::size_t>(std::find(row, row + width, kNone) - row);
}

/// True when every event of the sorted, kNone-padded range starting at
/// `sub` occurs in the sorted range starting at `set`.
bool includes_row(const std::uint32_t* set, const std::uint32_t* set_end,
                  const std::uint32_t* sub, const std::uint32_t* sub_end) noexcept {
    for (; sub != sub_end && *sub != kNone; ++sub, ++set) {
        while (set != set_end && *set < *sub) ++set;
        if (set == set_end || *set != *sub) return false;
    }
    return true;
}

/// Bits per word of a bit row.
constexpr std::size_t kWordBits = 64;

/// Event e's bit within its word.
constexpr std::uint64_t bit(std::uint32_t e) noexcept {
    return std::uint64_t{1} << (e % kWordBits);
}

/// ORs `words` words of `row` into `acc`.
void or_into(std::uint64_t* acc, const std::uint64_t* row, std::size_t words) noexcept {
    for (std::size_t w = 0; w < words; ++w) acc[w] |= row[w];
}

/// Calls f(i) for each set bit of `words` words in ascending order, where
/// i counts bits from the start of a row whose word `first` is words[0].
template <class F>
void for_each_bit(const std::uint64_t* words, std::size_t count, std::size_t first, F&& f) {
    for (std::size_t w = 0; w < count; ++w) {
        for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
            f(static_cast<std::uint32_t>((first + w) * kWordBits +
                                         static_cast<std::size_t>(std::countr_zero(bits))));
        }
    }
}

/// A gate's minimal family within the order limit: its order-1 members
/// as one bit row over the tree's events, kept from its first nonzero
/// word to its last (so singletons in a narrow range of events cost a
/// few words however many events the tree has, and a gate without
/// singletons costs none), and its members of order 2 and up as flat
/// rows.  No row holds a bit-row event or contains another row, and no
/// two rows are equal.
struct Family {
    std::size_t first = 0;            ///< word index of bits[0] in the whole row
    std::vector<std::uint64_t> bits;  ///< the bit row's words from `first` on
    Rows rows;

    [[nodiscard]] std::size_t end() const noexcept { return first + bits.size(); }
    /// Word w of the whole bit row.
    [[nodiscard]] std::uint64_t word(std::size_t w) const noexcept {
        return w >= first && w < end() ? bits[w - first] : 0;
    }
    [[nodiscard]] bool empty() const noexcept { return bits.empty() && rows.empty(); }
};

/// MOCUS over bit rows and flat rows, truncated at the order limit: one
/// loop over the reachable gates in index order, so every child's
/// minimal family is ready before its parents read it by reference.
class Mocus {
public:
    Mocus(const ftree::FaultTree& ft, const CutSetOptions& options)
        : ft_(ft),
          max_sets_(options.max_sets),
          // No cut set is larger than the order limit or the event count
          // (a tree without events still gets one cell per row).
          width_(std::max<std::size_t>(1, std::min(options.max_order,
                                                   ft.basic_events().size()))),
          memo_(ft.gates().size()),
          bits_((ft.basic_events().size() + kWordBits - 1) / kWordBits, 0),
          first_(ft.basic_events().size(), kNone) {}

    [[nodiscard]] std::size_t width() const noexcept { return width_; }

    /// The minimal family of gate `top`, rows in no particular order.
    const Family& run(std::uint32_t top) {
        for (const std::uint32_t g : ft_.reachable_gates({ftree::FtRef::Kind::Gate, top})) {
            const ftree::Gate& gate = ft_.gates()[g];
            memo_[g] = gate.kind == ftree::GateKind::Or ? any_child(gate) : all_children(gate);
        }
        return memo_[top];
    }

private:
    /// An OR gate: the union of its children's bit rows and its basic
    /// children, and its gate children's rows that meet none of them.
    /// Each child's rows are minimal, so only rows from two or more
    /// children need minimising.  No children, no cut set.
    Family any_child(const ftree::Gate& gate) {
        std::size_t lo = bits_.size();
        std::size_t hi = 0;
        for (const ftree::FtRef c : gate.children) {
            if (c.kind == ftree::FtRef::Kind::Basic) {
                bits_[c.index / kWordBits] |= bit(c.index);
                lo = std::min(lo, c.index / kWordBits);
                hi = std::max(hi, c.index / kWordBits + 1);
            } else if (const Family& child = memo_[c.index]; !child.bits.empty()) {
                or_into(&bits_[child.first], child.bits.data(), child.bits.size());
                lo = std::min(lo, child.first);
                hi = std::max(hi, child.end());
            }
        }
        Family out;
        std::size_t sources = 0;
        for (const ftree::FtRef c : gate.children) {
            if (c.kind == ftree::FtRef::Kind::Basic) continue;
            const Rows& rows = memo_[c.index].rows;
            const std::size_t before = out.rows.size();
            for (std::size_t r = 0; r < rows.size(); r += width_) {
                if (!meets_bits(&rows[r])) {
                    out.rows.insert(out.rows.end(), &rows[r], &rows[r] + width_);
                }
            }
            sources += out.rows.size() > before ? 1 : 0;
            check_limit(out.rows);
        }
        if (sources > 1) out.rows = minimize(out.rows);
        take_bits(out, lo, hi);
        return out;
    }

    /// An AND gate: its children's families multiplied one at a time,
    /// each product minimised before the next.  No children, no cut set.
    Family all_children(const ftree::Gate& gate) {
        Family acc;
        const Family* left = nullptr;
        for (const ftree::FtRef c : gate.children) {
            const Family* child = &event_;
            if (c.kind == ftree::FtRef::Kind::Basic) {
                event_.first = c.index / kWordBits;
                event_.bits.assign(1, bit(c.index));
            } else {
                child = &memo_[c.index];
            }
            if (left != nullptr) {
                acc = product(*left, *child);
                left = &acc;
            } else if (child == &event_) {
                acc = event_;  // the next basic child overwrites event_
                left = &acc;
            } else {
                left = child;
            }
            if (left->empty()) break;  // a product with no member has none
        }
        if (left == nullptr || left == &acc) return acc;
        return *left;
    }

    /// The minimal family of the unions of a member of `a` with a member
    /// of `b`.  A member c of both is one of them (c = c ∪ c) and is
    /// contained in every other union holding c, so the family is the
    /// shared members as they stand plus the unions of the unshared
    /// members, minimised: the members that redundant branches inherit
    /// from one upstream gate are never multiplied.  The unions fit the
    /// width, meet no shared singleton (an unshared singleton of one side
    /// is not a singleton of the other, and neither side's rows hold its
    /// own singletons) and have order 2 or more.
    Family product(const Family& a, const Family& b) {
        Family out;
        const std::size_t lo = std::max(a.first, b.first);
        const std::size_t hi = std::min(a.end(), b.end());
        for (std::size_t w = lo; w < hi; ++w) bits_[w] = a.word(w) & b.word(w);
        take_bits(out, lo, hi);

        // The unshared singletons, as rows.
        singles_.clear();
        const auto add_unshared = [&](const Family& x, const Family& y) {
            for (std::size_t w = 0; w < x.bits.size(); ++w) {
                const std::uint64_t only = x.bits[w] & ~y.word(x.first + w);
                for_each_bit(&only, 1, x.first + w, [&](std::uint32_t e) {
                    singles_.push_back(e);
                    singles_.insert(singles_.end(), width_ - 1, kNone);
                });
            }
            return singles_.size() / width_;
        };
        const std::size_t singles_a = add_unshared(a, b);
        add_unshared(b, a);
        left_.clear();
        right_.clear();
        for (std::size_t s = 0; s < singles_.size(); s += width_) {
            (s / width_ < singles_a ? left_ : right_).push_back(&singles_[s]);
        }

        // The shared rows, found through a table of b's rows; the rest
        // join their side's unshared members.
        const std::size_t nb = b.rows.size() / width_;
        clear_table(nb);
        for (std::size_t r = 0; r < nb; ++r) {
            slot_of(b.rows, &b.rows[r * width_]) = static_cast<std::uint32_t>(r);
        }
        shared_.assign(nb, 0);
        for (std::size_t r = 0; r < a.rows.size(); r += width_) {
            const std::uint32_t* row = &a.rows[r];
            if (const std::uint32_t s = slot_of(b.rows, row); s != kNone) {
                shared_[s] = 1;
                out.rows.insert(out.rows.end(), row, row + width_);
            } else {
                left_.push_back(row);
            }
        }
        for (std::size_t r = 0; r < nb; ++r) {
            if (shared_[r] == 0) right_.push_back(&b.rows[r * width_]);
        }

        const std::size_t shared = out.rows.size();
        for (const std::uint32_t* x : left_) {
            std::size_t used = out.rows.size();
            out.rows.resize(used + right_.size() * width_);
            for (const std::uint32_t* y : right_) {
                if (merge_rows(x, y, &out.rows[used], width_)) used += width_;
            }
            out.rows.resize(used);
            check_limit(out.rows);
        }
        if (out.rows.size() > shared) out.rows = minimize(out.rows);
        return out;
    }

    /// Moves words lo to hi - 1 of the scratch bit row into `f.bits`,
    /// trimmed to its first and last nonzero word, and clears them.
    void take_bits(Family& f, std::size_t lo, std::size_t hi) {
        std::size_t begin = lo;
        std::size_t end = std::max(lo, hi);
        while (begin < end && bits_[begin] == 0) ++begin;
        while (end > begin && bits_[end - 1] == 0) --end;
        f.first = begin;
        f.bits.assign(bits_.begin() + static_cast<std::ptrdiff_t>(begin),
                      bits_.begin() + static_cast<std::ptrdiff_t>(end));
        std::fill(bits_.begin() + static_cast<std::ptrdiff_t>(begin),
                  bits_.begin() + static_cast<std::ptrdiff_t>(end), 0);
    }

    /// True when the row holds an event set in the scratch bit row.
    bool meets_bits(const std::uint32_t* row) const noexcept {
        for (std::size_t i = 0; i < width_ && row[i] != kNone; ++i) {
            if ((bits_[row[i] / kWordBits] & bit(row[i])) != 0) return true;
        }
        return false;
    }

    void check_limit(const Rows& rows) const {
        if (rows.size() / width_ > max_sets_) {
            throw AnalysisError("minimal_cut_sets: intermediate set count exceeds max_sets");
        }
    }

    /// The distinct minimal rows of `rows`.  Rows are bucketed by order
    /// in one counting pass and walked in ascending order, so a row can
    /// only be dominated by a row already kept.  Duplicates fall out
    /// through the row table.  A new row is tested only against the kept
    /// rows whose smallest event it contains: the smallest event of a
    /// subset is one of the superset's events.
    Rows minimize(const Rows& rows) {
        const std::size_t w = width_;
        const std::size_t n = rows.size() / w;
        order_.resize(n);
        std::vector<std::size_t> start(w + 2, 0);  // start[k]: first slot of order k
        for (std::size_t r = 0; r < n; ++r) {
            order_[r] = static_cast<std::uint32_t>(row_order(&rows[r * w], w));
            ++start[order_[r] + 1];
        }
        for (std::size_t k = 1; k < start.size(); ++k) start[k] += start[k - 1];
        by_order_.resize(n);
        std::vector<std::size_t> cursor(start.begin(), start.end() - 1);
        for (std::size_t r = 0; r < n; ++r) {
            by_order_[cursor[order_[r]]++] = static_cast<std::uint32_t>(r);
        }
        clear_table(n);

        Rows kept;
        for (std::size_t k = 1; k <= w; ++k) {
            const std::size_t first_kept = kept.size() / w;
            for (std::size_t slot = start[k]; slot < start[k + 1]; ++slot) {
                const std::uint32_t r = by_order_[slot];
                const std::uint32_t* row = &rows[r * w];
                std::uint32_t& seen = slot_of(rows, row);
                if (seen != kNone) continue;  // a duplicate
                seen = r;
                if (!dominated(row, k, kept)) kept.insert(kept.end(), row, row + w);
            }
            // Distinct rows of one order never dominate each other, so
            // the rows kept at order k join the index once k is done.
            next_.resize(kept.size() / w);
            for (std::size_t r = first_kept; r < kept.size() / w; ++r) {
                const std::uint32_t e = kept[r * w];
                next_[r] = first_[e];
                first_[e] = static_cast<std::uint32_t>(r);
            }
        }
        for (std::size_t r = 0; r < kept.size(); r += w) first_[kept[r]] = kNone;
        return kept;
    }

    /// Empties the row table, sized for up to n rows.
    void clear_table(std::size_t n) {
        std::size_t capacity = 16;
        while (capacity < 2 * n) capacity *= 2;
        table_.assign(capacity, kNone);
    }

    /// The table slot holding the index of the row of `rows` equal to
    /// `row`, or the empty slot where that index belongs.
    std::uint32_t& slot_of(const Rows& rows, const std::uint32_t* row) {
        const std::size_t w = width_;
        std::uint64_t h = 0;
        for (std::size_t i = 0; i < w && row[i] != kNone; ++i) {
            h = (h + row[i]) * 0x9E3779B97F4A7C15ull;
        }
        const std::size_t mask = table_.size() - 1;
        for (std::size_t slot = hash::mix64(h) & mask;; slot = (slot + 1) & mask) {
            const std::uint32_t other = table_[slot];
            if (other == kNone || std::equal(row, row + w, &rows[other * w])) return table_[slot];
        }
    }

    /// True when a kept row is a subset of `row`, which has order `k`.
    bool dominated(const std::uint32_t* row, std::size_t k, const Rows& kept) const {
        const std::size_t w = width_;
        for (std::size_t p = 0; p < k; ++p) {
            for (std::uint32_t r = first_[row[p]]; r != kNone; r = next_[r]) {
                const std::uint32_t* sub = &kept[r * w];
                if (includes_row(row + p + 1, row + k, sub + 1, sub + w)) return true;
            }
        }
        return false;
    }

    const ftree::FaultTree& ft_;
    std::size_t max_sets_;
    std::size_t width_;
    std::vector<Family> memo_;  ///< per gate: its minimal family
    // Scratch space, reused across gates.
    std::vector<std::uint64_t> bits_;         ///< one bit row over every event, zero between uses
    Family event_;                            ///< a basic child's family: its one singleton
    Rows singles_;                            ///< product(): the unshared singletons as rows
    std::vector<const std::uint32_t*> left_;  ///< product(): a's unshared members
    std::vector<const std::uint32_t*> right_; ///< product(): b's unshared members
    std::vector<std::uint8_t> shared_;        ///< product(): per row of b, whether a has it too
    std::vector<std::uint32_t> order_;        ///< minimize(): per row, its order
    std::vector<std::uint32_t> by_order_;     ///< minimize(): row indices bucketed by order
    std::vector<std::uint32_t> table_;        ///< open-addressing table of row indices
    std::vector<std::uint32_t> first_;        ///< per event: a kept row starting with it
    std::vector<std::uint32_t> next_;         ///< per kept row: next with the same first event
};

}  // namespace

std::vector<CutSet> minimal_cut_sets(const ftree::FaultTree& ft, const CutSetOptions& options) {
    obs::ObsSpan span("minimal_cut_sets", "analysis");
    if (options.max_order == 0) {
        throw AnalysisError("minimal_cut_sets: max_order must be at least 1");
    }
    const ftree::FtRef top = ft.top();
    if (top.kind == ftree::FtRef::Kind::Basic) return {CutSet{top.index}};
    Mocus mocus(ft, options);
    const Family& family = mocus.run(top.index);
    const std::size_t w = mocus.width();
    std::vector<CutSet> result;
    result.reserve(family.rows.size() / w);
    for_each_bit(family.bits.data(), family.bits.size(), family.first,
                 [&](std::uint32_t e) { result.push_back(CutSet{e}); });
    for (std::size_t r = 0; r < family.rows.size(); r += w) {
        result.emplace_back(&family.rows[r], &family.rows[r] + row_order(&family.rows[r], w));
    }
    std::sort(result.begin(), result.end());
    return result;
}

double cut_set_probability_bound(const ftree::FaultTree& ft, const std::vector<CutSet>& cut_sets,
                                 double mission_hours) {
    double total = 0.0;
    for (const CutSet& cs : cut_sets) {
        double p = 1.0;
        for (std::uint32_t e : cs) {
            p *= bdd::basic_event_probability(ft.basic_event(e).lambda, mission_hours);
        }
        total += p;
    }
    return std::min(total, 1.0);
}

std::size_t minimal_cut_order(const std::vector<CutSet>& cut_sets) noexcept {
    std::size_t best = 0;
    for (const CutSet& cs : cut_sets) {
        if (best == 0 || cs.size() < best) best = cs.size();
    }
    return best;
}

CutSetLowerBound::CutSetLowerBound(std::vector<CutSet> cuts, std::vector<double> event_probability)
    : cuts_(std::move(cuts)), probs_(std::move(event_probability)) {
    const std::size_t k = cuts_.size();
    words_ = (k + kWordBits - 1) / kWordBits;
    rows_.assign(probs_.size() * words_, 0);
    cut_prob_.resize(k);
    pair_sum_.assign(k, 0.0);
    double max_single = 0.0;
    double sum_sq = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
        for (std::uint32_t e : cuts_[i]) {
            check_event(e);
            rows_[e * words_ + i / kWordBits] |= std::uint64_t{1} << (i % kWordBits);
        }
        cut_prob_[i] = set_probability(cuts_[i], {});
        s1_ += cut_prob_[i];
        sum_sq += cut_prob_[i] * cut_prob_[i];
        max_single = std::max(max_single, cut_prob_[i]);
    }
    by_prob_desc_.resize(k);
    for (std::size_t i = 0; i < k; ++i) by_prob_desc_[i] = static_cast<std::uint32_t>(i);
    std::sort(by_prob_desc_.begin(), by_prob_desc_.end(), [&](std::uint32_t a, std::uint32_t b) {
        if (cut_prob_[a] != cut_prob_[b]) return cut_prob_[a] > cut_prob_[b];
        return a < b;
    });

    // S2 over all pairs, factorised: independent pairs contribute
    // P(C_i) * P(C_j), summed in closed form as (S1^2 - sum P^2) / 2.
    // Only pairs sharing at least one event deviate from the product —
    // their exact joint probability divides the shared events out, so
    // the (nonnegative) correction is applied once per sharing pair
    // (i, j), i < j, in ascending (i, j) order: for each cut i, the OR of
    // its events' rows over the bits after i, walked upwards.
    s2_ = std::max(0.0, (s1_ * s1_ - sum_sq) * 0.5);
    for (std::size_t i = 0; i < k; ++i) pair_sum_[i] = cut_prob_[i] * (s1_ - cut_prob_[i]);
    const auto apply_correction = [&](std::uint32_t i, std::uint32_t j) {
        const double correction =
            pair_probability(cuts_[i], cuts_[j], {}) - cut_prob_[i] * cut_prob_[j];
        pair_sum_[i] += correction;
        pair_sum_[j] += correction;
        s2_ += correction;
    };
    std::vector<std::uint64_t> later(words_);
    for (std::uint32_t i = 0; i < k; ++i) {
        const CutSet& cut = cuts_[i];
        // A cut naming an event twice shares it with itself.
        if (std::adjacent_find(cut.begin(), cut.end()) != cut.end()) apply_correction(i, i);
        const std::size_t first = i / kWordBits;
        const std::size_t words = words_ - first;
        std::fill(later.begin() + static_cast<std::ptrdiff_t>(first), later.end(), 0);
        for (const std::uint32_t e : cut) or_into(&later[first], row(e) + first, words);
        later[first] &= ~std::uint64_t{0} << (i % kWordBits) << 1;  // cuts up to i
        for_each_bit(&later[first], words, first,
                     [&](std::uint32_t j) { apply_correction(i, j); });
    }
    base_bound_ = std::min(std::max({0.0, max_single, s1_ - s2_}), 1.0);
}

void CutSetLowerBound::check_event(std::uint32_t e) const {
    if (e >= probs_.size()) throw AnalysisError("CutSetLowerBound: event index out of range");
}

std::vector<std::uint32_t> CutSetLowerBound::cuts_containing(
    const std::vector<std::uint32_t>& events) const {
    std::vector<std::uint64_t> any(words_, 0);
    for (const std::uint32_t e : events) {
        check_event(e);
        or_into(any.data(), row(e), words_);
    }
    std::vector<std::uint32_t> out;
    for_each_bit(any.data(), words_, 0, [&](std::uint32_t i) { out.push_back(i); });
    return out;
}

double CutSetLowerBound::priced(std::uint32_t e,
                                const std::vector<std::pair<std::uint32_t, double>>& ov) const {
    for (const auto& [event, p] : ov) {
        if (event == e) return p;
    }
    return probs_[e];
}

double CutSetLowerBound::set_probability(
    const CutSet& cs, const std::vector<std::pair<std::uint32_t, double>>& ov) const {
    double p = 1.0;
    for (std::uint32_t e : cs) p *= priced(e, ov);
    return p;
}

double CutSetLowerBound::pair_probability(
    const CutSet& a, const CutSet& b,
    const std::vector<std::pair<std::uint32_t, double>>& ov) const {
    // Product over the union of the two (sorted) event sets.
    double p = 1.0;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.size() && j < b.size()) {
        if (a[i] == b[j]) {
            p *= priced(a[i], ov);
            ++i;
            ++j;
        } else if (a[i] < b[j]) {
            p *= priced(a[i++], ov);
        } else {
            p *= priced(b[j++], ov);
        }
    }
    for (; i < a.size(); ++i) p *= priced(a[i], ov);
    for (; j < b.size(); ++j) p *= priced(b[j], ov);
    return p;
}

double CutSetLowerBound::rebound(const Substitution& s) const {
    for (const std::uint32_t i : s.affected) {
        if (i >= cuts_.size()) throw AnalysisError("CutSetLowerBound: cut index out of range");
    }
    for (const CutSet& r : s.replacements) {
        for (const std::uint32_t e : r) check_event(e);
    }
    for (const auto& [e, p] : s.overrides) check_event(e);

    // The affected cuts as a mask over the rows' bits.
    std::vector<std::uint64_t> affected(words_, 0);
    for (const std::uint32_t i : s.affected) {
        affected[i / kWordBits] |= std::uint64_t{1} << (i % kWordBits);
    }
    const auto is_affected = [&](std::uint32_t i) {
        return ((affected[i / kWordBits] >> (i % kWordBits)) & 1u) != 0;
    };

    // S1' = S1 - (affected mass) + (replacement mass).  The best single
    // surviving cut is the first unaffected index in probability order.
    double s1 = s1_;
    for (std::uint32_t i : s.affected) s1 -= cut_prob_[i];
    const double s1_surviving = s1;
    double max_single = 0.0;
    for (std::uint32_t i : by_prob_desc_) {
        if (!is_affected(i)) {
            max_single = cut_prob_[i];
            break;
        }
    }
    std::vector<double> repl_prob;
    repl_prob.reserve(s.replacements.size());
    for (const CutSet& r : s.replacements) {
        const double p = set_probability(r, s.overrides);
        repl_prob.push_back(p);
        s1 += p;
        max_single = std::max(max_single, p);
    }

    // Pairs lost: every pair with at least one affected endpoint, i.e.
    // sum of affected T_i minus the double-counted affected-affected pairs.
    double removed = 0.0;
    for (std::uint32_t i : s.affected) removed += pair_sum_[i];
    for (std::size_t x = 0; x < s.affected.size(); ++x) {
        for (std::size_t y = x + 1; y < s.affected.size(); ++y) {
            removed -= pair_probability(cuts_[s.affected[x]], cuts_[s.affected[y]], {});
        }
    }

    // Pairs gained: replacement x surviving-original and replacement x
    // replacement.  A replacement sharing no events with a surviving cut
    // contributes exactly P(r) * P(C_j), so the whole surviving sweep
    // collapses to P(r) * S1_surviving; only the cuts in the OR of r's
    // events' rows, less the affected mask, need the exact joint
    // probability.  Surviving cuts contain no overridden events
    // (substitution precondition), so their stored probabilities price
    // the products correctly.
    double added = 0.0;
    std::vector<std::uint64_t> sharing(words_);
    for (std::size_t x = 0; x < s.replacements.size(); ++x) {
        const CutSet& r = s.replacements[x];
        if (repl_prob[x] == 0.0) continue;  // every pair with r has probability 0
        added += repl_prob[x] * s1_surviving;
        std::fill(sharing.begin(), sharing.end(), 0);
        for (std::uint32_t e : r) or_into(sharing.data(), row(e), words_);
        for (std::size_t w = 0; w < words_; ++w) sharing[w] &= ~affected[w];
        for_each_bit(sharing.data(), words_, 0, [&](std::uint32_t j) {
            added += pair_probability(r, cuts_[j], s.overrides) - repl_prob[x] * cut_prob_[j];
        });
    }
    for (std::size_t x = 0; x < s.replacements.size(); ++x) {
        for (std::size_t y = x + 1; y < s.replacements.size(); ++y) {
            added += pair_probability(s.replacements[x], s.replacements[y], s.overrides);
        }
    }

    const double s2 = s2_ - removed + added;
    return std::min(std::max({0.0, max_single, s1 - s2}), 1.0);
}

std::vector<double> basic_event_probabilities(const ftree::FaultTree& ft, double mission_hours) {
    std::vector<double> probs;
    probs.reserve(ft.basic_events().size());
    for (const ftree::BasicEvent& e : ft.basic_events()) {
        probs.push_back(bdd::basic_event_probability(e.lambda, mission_hours));
    }
    return probs;
}

}  // namespace asilkit::analysis
