/**
 * @file
 * Correctness gate: every solve and every Done serve job is compared
 * with the exact references in algorithms/reference.* under a stated
 * per-algorithm tolerance.  Values are compared in original vertex ids.
 */

#ifndef PERFBENCH_GATE_HH
#define PERFBENCH_GATE_HH

#include <string>
#include <vector>

namespace perfbench {

/** How a result vector must agree with its reference. */
struct GateTolerance
{
    double abs = 0.0;     //!< allowed |got - ref| ...
    double rel = 0.0;     //!< ... plus rel * |ref|
    double l1Rel = 0.0;   //!< if > 0: ||got - ref||_1 <= l1Rel ||ref||_1
    bool labels = false;  //!< compare as a partition (cc labels)
};

/**
 * Tolerance for `algo` solved to activation threshold `engine_tol`.
 *  - pr:  ||got - ref||_1 <= 5% of ||ref||_1 and, per vertex,
 *         |got - ref| <= 10% of ref + 50 * engine_tol.  An engine stops
 *         once no vertex moves by more than engine_tol, so a vertex can
 *         keep up to about alpha/(1-alpha) * in-degree * engine_tol of
 *         unpropagated change.  At 0.01/|V| every engine measured at
 *         most 2.1% L1 and 6.3% per-vertex error on the seed code.
 *  - sssp, bfs: equal up to 1e-9 relative (integer-valued paths).
 *  - cc:  the same partition into components.
 */
GateTolerance gateTolerance(const std::string &algo, double engine_tol);

/** @return "" when `got` matches `ref`, else the worst mismatch. */
std::string compareValues(const std::vector<double> &got,
                          const std::vector<double> &ref,
                          const GateTolerance &tol);

/**
 * Gate self-check: a vector that passed must still pass, and the same
 * vector with one entry pushed just past the tolerance must fail.
 * @return true when the gate behaves.
 */
bool gateSelfCheck(const std::vector<double> &passed,
                   const std::vector<double> &ref,
                   const GateTolerance &tol);

} // namespace perfbench

#endif // PERFBENCH_GATE_HH
