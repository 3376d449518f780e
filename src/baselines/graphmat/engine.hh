/**
 * @file
 * GraphMat-style baseline: a Bulk-Synchronous generalized-SpMV engine
 * (Sundaram et al., VLDB 2015) — the framework the paper compares
 * against (Sec. V, Tables II/III).
 *
 * Every superstep performs one generalized sparse-matrix/vector step:
 * active vertices broadcast a message along their out-edges
 * (SEND_MESSAGE), messages are combined at the destination (REDUCE) and
 * folded into the vertex state (APPLY); vertices whose state changed are
 * active in the next superstep.  Commits are double-buffered, so the
 * semantics are pure Jacobi with a global barrier per iteration — block
 * size |V| in BCD terms.
 *
 * The active-vertex filtering is what the paper calls out for SSSP:
 * only active columns are processed, which "in fact reduces its block
 * size" and is why GraphMat's SSSP converges in fewer effective epochs
 * than block-granular GraphABCD.
 */

#ifndef GRAPHABCD_BASELINES_GRAPHMAT_ENGINE_HH
#define GRAPHABCD_BASELINES_GRAPHMAT_ENGINE_HH

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/convergence_window.hh"
#include "graph/csr.hh"
#include "graph/edge_list.hh"
#include "obs/obs.hh"
#include "support/logging.hh"
#include "support/timer.hh"

namespace graphabcd {
namespace graphmat {

/**
 * Compile-time contract of a GraphMat vertex program, following
 * GraphMat's SEND_MESSAGE / PROCESS_MESSAGE / REDUCE / APPLY API (the
 * PROCESS_MESSAGE stage receives the destination vertex property, which
 * is what lets CF compute per-edge errors):
 *
 *   Value       — per-vertex state;
 *   Message     — the processed per-edge contribution;
 *   processEdge — SEND_MESSAGE + PROCESS_MESSAGE fused: per-edge
 *                 contribution from (dst state, src state, weight);
 *   reduce      — commutative/associative combiner;
 *   apply       — fold the reduced message into the state; returns the
 *                 new state.  A state change (re)activates the vertex.
 */
template <typename P>
concept SpmvProgram = requires(const P p, typename P::Value v,
                               typename P::Message m, VertexId vid,
                               float w, std::uint32_t n) {
    typename P::Value;
    typename P::Message;
    { p.init(vid, n) } -> std::convertible_to<typename P::Value>;
    { p.identity() } -> std::convertible_to<typename P::Message>;
    { p.processEdge(v, v, w) } -> std::convertible_to<typename P::Message>;
    { p.reduce(m, m) } -> std::convertible_to<typename P::Message>;
    { p.apply(vid, m, v) } -> std::convertible_to<typename P::Value>;
    { p.delta(v, v) } -> std::convertible_to<double>;
    { p.usesFiltering() } -> std::convertible_to<bool>;
};

/** Work accounting of one GraphMat run. */
struct GraphMatReport
{
    std::uint32_t iterations = 0;       //!< BSP supersteps
    std::uint64_t edgesProcessed = 0;   //!< SpMV edge traversals
    std::uint64_t vertexUpdates = 0;    //!< active destinations applied
    std::uint64_t messagesSent = 0;
    bool filtered = false;              //!< ran with active-vertex filtering
    bool converged = false;
    double effectiveEpochs = 0.0;       //!< vertexUpdates / |V|
};

/**
 * The BSP engine.  Built once per (graph, program); run() restarts from
 * init() every call.
 */
template <SpmvProgram Program>
class GraphMatEngine
{
  public:
    using Value = typename Program::Value;
    using Message = typename Program::Message;

    /** Per-superstep observer (iteration, values) for RMSE curves. */
    using IterFn =
        std::function<bool(std::uint32_t, const std::vector<Value> &)>;

    GraphMatEngine(const EdgeList &el, Program p)
        : inCsr(el, Csr::Axis::ByDestination),
          outDegrees(el.outDegrees()), program(std::move(p)),
          nVertices(el.numVertices())
    {
    }

    /**
     * Attach a convergence curve sink: run() appends one sample per
     * superstep (residual = L1 state delta of the superstep), so the
     * baseline plots on the same axes as the BCD engines (paper
     * Figs. 9-11).  No-op stub under GRAPHABCD_OBS=OFF.
     */
    void
    setConvergenceSeries(std::shared_ptr<obs::ConvergenceSeries> series)
    {
        convergence = std::move(series);
    }

    /**
     * Run supersteps until no vertex is active or `max_iters`.
     * @param tol state changes <= tol do not reactivate.
     * @param iter_fn optional; return true to stop (objective-based
     *        convergence criterion).
     */
    GraphMatReport
    run(std::vector<Value> &out_values, double tol,
        std::uint32_t max_iters = 10000, const IterFn &iter_fn = nullptr)
    {
        Timer timer;
        GraphMatReport report;
        // The superstep is the sample window.
        ConvergenceWindow conv(convergence, 0.0);
        std::vector<Value> x(nVertices);
        for (VertexId v = 0; v < nVertices; v++)
            x[v] = program.init(v, nVertices);
        std::vector<Value> next(x);

        // Active-vertex filtering is only sound for monotone programs
        // whose APPLY folds the reduced message into the old value
        // (SSSP/BFS/CC): a partial reduce then loses nothing.  PR and
        // CF recompute from *all* in-edges, so GraphMat runs them as
        // full BSP sweeps — exactly the "GraphMat deviates from its BSP
        // model in SSSP" distinction the paper draws (Sec. V-C).
        const bool filtering = program.usesFiltering();
        report.filtered = filtering;

        std::vector<char> active(nVertices, 1);
        std::vector<char> next_active(nVertices, 0);

        std::uint64_t active_count = nVertices;
        while (active_count > 0 && report.iterations < max_iters) {
            std::uint64_t moved = 0;
            double step_l1 = 0.0;
            for (VertexId v = 0; v < nVertices; v++) {
                Message acc = program.identity();
                bool got = false;
                auto nbrs = inCsr.neighbors(v);
                auto wgts = inCsr.weights(v);
                for (std::size_t i = 0; i < nbrs.size(); i++) {
                    if (filtering && !active[nbrs[i]])
                        continue;
                    acc = program.reduce(
                        acc,
                        program.processEdge(x[v], x[nbrs[i]], wgts[i]));
                    got = true;
                    report.edgesProcessed++;
                }
                if (filtering && !got) {
                    next[v] = x[v];
                    continue;
                }
                next[v] = program.apply(v, acc, x[v]);
                report.vertexUpdates++;
                const double d = program.delta(next[v], x[v]);
                if constexpr (obs::kEnabled)
                    step_l1 += d;
                if (d > tol) {
                    next_active[v] = 1;
                    moved++;
                }
            }
            // Message volume = out-edges of the vertices that sent this
            // superstep (what the SpMV streams; drives the cost model).
            for (VertexId v = 0; v < nVertices; v++) {
                if (!filtering || active[v])
                    report.messagesSent += outDegrees[v];
            }

            // Global barrier: commit the double buffer.
            x.swap(next);
            active.swap(next_active);
            std::fill(next_active.begin(), next_active.end(), 0);
            active_count = filtering
                ? std::count(active.begin(), active.end(), char(1))
                : moved;
            report.iterations++;
            conv.add(step_l1, moved);
            const double epochs =
                static_cast<double>(report.vertexUpdates) /
                std::max<double>(nVertices, 1.0);
            // Record the last superstep as final so the curve always
            // ends on the terminating superstep.
            if (active_count == 0 || report.iterations >= max_iters) {
                conv.finish(epochs, report.vertexUpdates,
                            report.edgesProcessed, timer);
            } else {
                conv.sample(epochs, report.vertexUpdates,
                            report.edgesProcessed, timer);
            }
            if (iter_fn && iter_fn(report.iterations, x)) {
                report.converged = true;
                break;
            }
        }
        if (active_count == 0)
            report.converged = true;
        report.effectiveEpochs =
            static_cast<double>(report.vertexUpdates) /
            std::max<double>(nVertices, 1.0);
        out_values = std::move(x);
        return report;
    }

  private:
    Csr inCsr;
    std::vector<std::uint32_t> outDegrees;
    Program program;
    VertexId nVertices;
    std::shared_ptr<obs::ConvergenceSeries> convergence;
};

} // namespace graphmat
} // namespace graphabcd

#endif // GRAPHABCD_BASELINES_GRAPHMAT_ENGINE_HH
