/**
 * @file
 * ConvergenceWindow — the one place an engine turns its work counters
 * into obs::ConvergencePoint samples.
 *
 * Every engine keeps the same sample window: the L1 value move and the
 * count of vertices that moved by more than the tolerance since the
 * last sample.  The window is published into the run's convergence
 * series (EngineOptions::convergence) at trace-interval epoch
 * boundaries and once more, unfiltered, at the end of the run.
 * Accumulation compiles out under GRAPHABCD_OBS=OFF, where the series
 * is always null and residual() stays 0.
 */

#ifndef GRAPHABCD_CORE_CONVERGENCE_WINDOW_HH
#define GRAPHABCD_CORE_CONVERGENCE_WINDOW_HH

#include <cstdint>
#include <memory>
#include <utility>

#include "obs/obs.hh"
#include "support/timer.hh"

namespace graphabcd {

/**
 * Residual window of one convergence series.  Not thread-safe: the
 * threaded engines mutate it under their control lock.
 */
class ConvergenceWindow
{
  public:
    ConvergenceWindow() = default;

    /**
     * @param series sink for the samples (null records nothing).
     * @param trace_interval epochs between samples; <= 0 samples once
     *        per epoch.
     */
    ConvergenceWindow(std::shared_ptr<obs::ConvergenceSeries> series,
                      double trace_interval)
        : series_(std::move(series)),
          interval_(trace_interval > 0.0 ? trace_interval : 1.0),
          next_(interval_)
    {
    }

    /** Fold one block's (or superstep's) L1 move and moved-vertex
     *  count into the open window. */
    void
    add(double l1, std::uint64_t active)
    {
        if constexpr (obs::kEnabled) {
            l1_ += l1;
            active_ += active;
        }
    }

    /** @return whether `epochs` reached the next sample boundary; if
     *  so, the boundary moves one interval past `epochs`. */
    bool
    due(double epochs)
    {
        if (epochs + 1e-12 < next_)
            return false;
        next_ = epochs + interval_;
        return true;
    }

    /** sample() at trace-interval boundaries, when a series is set. */
    void
    maybeSample(double epochs, std::uint64_t vertex_updates,
                std::uint64_t edge_traversals, const Timer &timer)
    {
        if (series_ && due(epochs))
            sample(epochs, vertex_updates, edge_traversals, timer);
    }

    /**
     * Record the open window and start a fresh one.
     * @return the window's residual (L1 move) before the reset.
     */
    double
    sample(double epochs, std::uint64_t vertex_updates,
           std::uint64_t edge_traversals, const Timer &timer,
           double sim_seconds = 0.0)
    {
        const double residual = l1_;
        publish(epochs, vertex_updates, edge_traversals, timer,
                sim_seconds, /*final=*/false);
        l1_ = 0.0;
        active_ = 0;
        return residual;
    }

    /**
     * Record the run's last sample, bypassing the series' stride
     * filter.
     * @return the open window's residual (EngineReport::residual).
     */
    double
    finish(double epochs, std::uint64_t vertex_updates,
           std::uint64_t edge_traversals, const Timer &timer,
           double sim_seconds = 0.0)
    {
        publish(epochs, vertex_updates, edge_traversals, timer,
                sim_seconds, /*final=*/true);
        return l1_;
    }

    double residual() const { return l1_; }
    std::uint64_t active() const { return active_; }

  private:
    void
    publish(double epochs, std::uint64_t vertex_updates,
            std::uint64_t edge_traversals, const Timer &timer,
            double sim_seconds, bool final)
    {
        if constexpr (obs::kEnabled) {
            if (!series_)
                return;
            obs::ConvergencePoint pt;
            pt.epochs = epochs;
            pt.residual = l1_;
            pt.activeVertices = active_;
            pt.vertexUpdates = vertex_updates;
            pt.edgeTraversals = edge_traversals;
            pt.wallSeconds = timer.seconds();
            pt.simSeconds = sim_seconds;
            if (final)
                series_->recordFinal(pt);
            else
                series_->record(pt);
        }
    }

    std::shared_ptr<obs::ConvergenceSeries> series_;
    double interval_ = 1.0;
    double next_ = 1.0;
    double l1_ = 0.0;
    std::uint64_t active_ = 0;
};

} // namespace graphabcd

#endif // GRAPHABCD_CORE_CONVERGENCE_WINDOW_HH
