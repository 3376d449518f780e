#include "gate.hh"

#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

GateTolerance
gateTolerance(const std::string &algo, double engine_tol)
{
    if (algo == "pr")
        return {50.0 * engine_tol, 0.1, 0.05, false};
    if (algo == "cc")
        return {0.0, 0.0, 0.0, true};
    return {0.0, 1e-9, 0.0, false};
}

namespace {

std::string
comparePartition(const std::vector<double> &got,
                 const std::vector<double> &ref)
{
    std::unordered_map<double, double> g2r, r2g;
    for (std::size_t v = 0; v < got.size(); v++) {
        auto [a, fa] = g2r.emplace(got[v], ref[v]);
        auto [b, fb] = r2g.emplace(ref[v], got[v]);
        if (a->second != ref[v] || b->second != got[v]) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "vertex %zu label %.17g splits or merges "
                          "reference component %.17g",
                          v, got[v], ref[v]);
            return buf;
        }
    }
    return "";
}

} // namespace

std::string
compareValues(const std::vector<double> &got,
              const std::vector<double> &ref, const GateTolerance &tol)
{
    if (got.size() != ref.size()) {
        return "size " + std::to_string(got.size()) + " != reference " +
               std::to_string(ref.size());
    }
    if (tol.labels)
        return comparePartition(got, ref);
    std::size_t worst = 0;
    double worst_excess = 0.0, l1 = 0.0, ref_l1 = 0.0;
    for (std::size_t v = 0; v < got.size(); v++) {
        const double err = std::abs(got[v] - ref[v]);
        l1 += err;
        ref_l1 += std::abs(ref[v]);
        const double limit = tol.abs + tol.rel * std::abs(ref[v]);
        // NaN never compares <= limit, so it is caught here too.
        if (!(err <= limit)) {
            const double excess = std::isnan(err) ? INFINITY : err - limit;
            if (excess > worst_excess || worst_excess == 0.0) {
                worst_excess = excess;
                worst = v;
            }
        }
    }
    char buf[160];
    if (worst_excess == 0.0 && tol.l1Rel > 0.0 && !(l1 <= tol.l1Rel * ref_l1)) {
        std::snprintf(buf, sizeof(buf), "L1 error %.3g of reference %.3g",
                      l1, ref_l1);
        return buf;
    }
    if (worst_excess == 0.0)
        return "";
    std::snprintf(buf, sizeof(buf), "vertex %zu got %.17g want %.17g", worst,
                  got[worst], ref[worst]);
    return buf;
}

bool
gateSelfCheck(const std::vector<double> &passed,
              const std::vector<double> &ref, const GateTolerance &tol)
{
    if (passed.empty() || !compareValues(passed, ref, tol).empty())
        return false;
    std::vector<double> bad = passed;
    std::size_t v = bad.size() / 2;
    if (tol.labels) {
        // Relabel one member of a multi-vertex component (reference
        // labels are the smallest member id) to a label no id carries.
        for (v = 0; v < ref.size() && ref[v] == static_cast<double>(v);)
            v++;
        if (v == ref.size())
            return false;
        bad[v] = -1.0;
    } else
        bad[v] = ref[v] + 2.0 * (tol.abs + tol.rel * std::abs(ref[v])) +
                 1e-12;
    return !compareValues(bad, ref, tol).empty();
}

} // namespace perfbench
