//! Timeline reconstruction: from a flat event stream back to
//! per-processor queue histories, run phases, and measured statistics.
//!
//! The simulator's trace is complete in the sense that every queue
//! transition is reported: arrivals and completions change one
//! processor's depth by one, and migrations carry both endpoints
//! (`proc` = receiver, `src` = donor) and a multiplicity. Starting all
//! queues at zero (pre-loaded tasks are traced as arrivals at `t = 0`)
//! and replaying the stream therefore reproduces the exact load vector
//! at every instant — which is enough to recompute the paper's
//! time-averaged tail fractions `s_i`, the mean number of tasks in
//! system, and (via Little's law) the mean sojourn time, all without
//! access to the simulator's internal statistics.
//!
//! Caveat: a trace of a *multi-run* batch (`--runs > 1`) interleaves
//! events from concurrent replications and cannot be replayed into a
//! single consistent load vector. Use one run per trace for timeline
//! analysis; [`Timeline::replicates`] reports how many runs the trace
//! contains.

use loadsteal_obs::{Event, Recorder, SimEventKind};

/// Parameters for timeline reconstruction.
#[derive(Debug, Clone)]
pub struct TimelineConfig {
    /// Measurement starts here: events before `warmup` still move the
    /// reconstructed queues but are excluded from time averages.
    pub warmup: f64,
    /// Relative tolerance for the steady-state heuristic: the earliest
    /// heartbeat after which the first- and second-half means of
    /// `tasks_in_system` agree within this factor.
    pub steady_tolerance: f64,
}

impl Default for TimelineConfig {
    fn default() -> Self {
        Self {
            warmup: 0.0,
            steady_tolerance: 0.05,
        }
    }
}

/// Totals per event kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Tasks that entered the system.
    pub arrivals: u64,
    /// Tasks that finished service.
    pub completions: u64,
    /// Steal (or rebalance/share) probes initiated.
    pub steal_attempts: u64,
    /// Probes that found an eligible victim.
    pub steal_successes: u64,
    /// Migration events (batches, not tasks).
    pub migrations: u64,
    /// Tasks moved by those migrations.
    pub tasks_migrated: u64,
    /// Progress heartbeats.
    pub heartbeats: u64,
}

/// Reconstructed history of one processor.
#[derive(Debug, Clone, Default)]
pub struct ProcTimeline {
    /// Arrivals routed to this processor.
    pub arrivals: u64,
    /// Completions served here.
    pub completions: u64,
    /// Steal probes initiated by this processor (as thief).
    pub steal_attempts: u64,
    /// Successful probes by this processor.
    pub steal_successes: u64,
    /// Tasks received via migration.
    pub tasks_in: u64,
    /// Tasks donated via migration.
    pub tasks_out: u64,
    /// Queue depth at the end of the trace.
    pub final_depth: u64,
    /// Time-averaged queue depth over the measurement window.
    pub mean_depth: f64,
    /// Fraction of measured time spent non-empty (the utilization
    /// `ρ̂`, comparable to the mean-field `s₁`).
    pub busy_fraction: f64,
}

/// Solver-side summary extracted from the same stream.
#[derive(Debug, Clone, Default)]
pub struct SolverSummary {
    /// Accepted integrator steps (from `solver_step` events; falls back
    /// to the `solver_done` total when per-step events are absent).
    pub steps_accepted: u64,
    /// Rejected integrator steps.
    pub steps_rejected: u64,
    /// `(t, residual)` convergence samples from `solver_steady` events.
    pub residuals: Vec<(f64, f64)>,
    /// Whether the run reported steady-state convergence.
    pub converged: Option<bool>,
    /// Final residual from `solver_done`.
    pub final_residual: Option<f64>,
}

impl SolverSummary {
    /// Total steps attempted.
    pub fn steps_total(&self) -> u64 {
        self.steps_accepted + self.steps_rejected
    }
}

/// The reconstructed run: phases, queue statistics, and derived
/// measurements.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Number of processors seen (`max(proc, src) + 1` over sim
    /// events; 0 for solver-only traces).
    pub n_procs: usize,
    /// Earliest simulated time in the trace.
    pub start: f64,
    /// Latest simulated time in the trace.
    pub end: f64,
    /// Warmup boundary used for measurement.
    pub warmup: f64,
    /// Whole-trace event totals.
    pub counts: EventCounts,
    /// Post-warmup event totals (the measurement window).
    pub measured: EventCounts,
    /// Per-processor histories.
    pub per_proc: Vec<ProcTimeline>,
    /// Time-averaged tail fractions over the measurement window:
    /// `tails[i]` = fraction of processors with queue depth ≥ i
    /// (`tails[0] == 1`).
    pub tails: Vec<f64>,
    /// Time-averaged total tasks in system over the measurement window.
    pub mean_tasks: f64,
    /// Solver activity in the same trace, if any.
    pub solver: SolverSummary,
    /// `(t, events, tasks_in_system)` heartbeat samples.
    pub heartbeats: Vec<(f64, u64, u64)>,
    /// Finished replications reported in the trace.
    pub replicates: usize,
    /// Queue-depth underflows clamped during replay. Nonzero means the
    /// trace is not a single consistent run (truncated, or interleaved
    /// from `--runs > 1`).
    pub depth_underflows: u64,
    /// Migration events missing the donor (`src`) endpoint. Nonzero
    /// means the trace predates the two-endpoint migration format and
    /// queue depths cannot be replayed faithfully.
    pub sourceless_migrations: u64,
    /// Detected steady-state onset (heartbeat-based heuristic), if the
    /// trace carries enough heartbeats to tell.
    pub steady_at: Option<f64>,
}

/// Lazily-settled time integral of one processor's queue depth.
#[derive(Debug, Clone, Copy, Default)]
struct DepthCell {
    depth: u64,
    /// ∫ depth dt and ∫ [depth > 0] dt since `warmup`.
    depth_integral: f64,
    busy_integral: f64,
    last_update: f64,
}

impl DepthCell {
    /// Settle this processor's own integrals up to `t`.
    fn settle(&mut self, t: f64, warmup: f64) {
        if t > warmup {
            let since = self.last_update.max(warmup);
            if t > since {
                self.depth_integral += self.depth as f64 * (t - since);
                if self.depth > 0 {
                    self.busy_integral += t - since;
                }
            }
        }
        self.last_update = t;
    }
}

/// The streaming form of [`Timeline::build`]: a [`Recorder`] replaying
/// each event as it arrives, in O(processors + depths) state whatever
/// the trace length; [`finish`](Self::finish) yields the [`Timeline`].
#[derive(Debug, Clone)]
pub struct TimelineReplay {
    tl: Timeline,
    steady_tolerance: f64,
    cells: Vec<DepthCell>,
    // counts_at_depth[d] = processors currently at depth d, with a
    // lazily settled time integral per depth (the LoadHistogram trick:
    // only the depths an event touches are settled, so the replay stays
    // O(1) per event).
    depth_counts: Vec<u64>,
    depth_integrals: Vec<f64>,
    depth_last: Vec<f64>,
    /// Σ of the settled depth-0 intervals: the idle time back-filled
    /// for a processor when it first appears.
    depth0_settled: f64,
}

impl TimelineReplay {
    /// An empty replay measuring from `cfg.warmup`.
    pub fn new(cfg: &TimelineConfig) -> Self {
        let warmup = cfg.warmup;
        Self {
            tl: Timeline {
                start: f64::INFINITY,
                end: f64::NEG_INFINITY,
                warmup,
                ..Timeline::default()
            },
            steady_tolerance: cfg.steady_tolerance,
            cells: Vec::new(),
            depth_counts: vec![0; 8],
            depth_integrals: vec![0.0; 8],
            depth_last: vec![warmup; 8],
            depth0_settled: 0.0,
        }
    }

    /// Processors are numbered densely: seeing `p` means `0..=p` exist,
    /// each idle at depth 0 since the start.
    fn grow(&mut self, n_procs: usize) {
        let new = n_procs.saturating_sub(self.cells.len());
        if new == 0 {
            return;
        }
        self.depth_integrals[0] += new as f64 * self.depth0_settled;
        self.depth_counts[0] += new as u64;
        let fresh = DepthCell {
            last_update: self.tl.warmup,
            ..DepthCell::default()
        };
        self.cells.resize(n_procs, fresh);
        self.tl.per_proc.resize(n_procs, ProcTimeline::default());
        self.tl.n_procs = n_procs;
    }

    fn settle(&mut self, d: usize, t: f64) {
        let warmup = self.tl.warmup;
        if d >= self.depth_counts.len() {
            self.depth_counts.resize(d + 1, 0);
            self.depth_integrals.resize(d + 1, 0.0);
            self.depth_last.resize(d + 1, warmup);
        }
        if t > warmup {
            let since = self.depth_last[d].max(warmup);
            if t > since {
                self.depth_integrals[d] += self.depth_counts[d] as f64 * (t - since);
                if d == 0 {
                    self.depth0_settled += t - since;
                }
            }
        }
        self.depth_last[d] = t;
    }

    fn adjust(&mut self, p: usize, delta: i64, t: f64) {
        let warmup = self.tl.warmup;
        let cell = &mut self.cells[p];
        cell.settle(t, warmup);
        let from = cell.depth as usize;
        let to = if delta >= 0 {
            cell.depth + delta as u64
        } else {
            let dec = (-delta) as u64;
            if cell.depth < dec {
                self.tl.depth_underflows += dec - cell.depth;
                0
            } else {
                cell.depth - dec
            }
        };
        cell.depth = to;
        let to = to as usize;
        if from != to {
            self.settle(from, t);
            self.settle(to, t);
            self.depth_counts[from] = self.depth_counts[from].saturating_sub(1);
            self.depth_counts[to] += 1;
        }
    }

    /// Close the measurement window at the final timestamp and derive
    /// the time averages.
    pub fn finish(mut self) -> Timeline {
        let warmup = self.tl.warmup;
        let end = if self.tl.end.is_finite() {
            self.tl.end
        } else {
            warmup
        };
        let span = (end - warmup).max(0.0);
        for (cell, pp) in self.cells.iter_mut().zip(&mut self.tl.per_proc) {
            cell.settle(end, warmup);
            pp.final_depth = cell.depth;
            if span > 0.0 {
                pp.mean_depth = cell.depth_integral / span;
                pp.busy_fraction = cell.busy_integral / span;
            }
        }
        for d in 0..self.depth_counts.len() {
            self.settle(d, end);
        }

        let mut tl = self.tl;
        // Tail fractions s_i = time-averaged fraction of processors at
        // depth ≥ i, and the mean number of tasks in the whole system.
        if tl.n_procs > 0 && span > 0.0 {
            let mean_counts: Vec<f64> = self.depth_integrals.iter().map(|&v| v / span).collect();
            let mut acc = 0.0;
            let mut tails = vec![0.0; mean_counts.len() + 1];
            for (d, &m) in mean_counts.iter().enumerate().rev() {
                acc += m;
                tails[d] = acc / tl.n_procs as f64;
            }
            // Trim trailing zeros but keep tails[0].
            while tails.len() > 1 && tails[tails.len() - 1] == 0.0 {
                tails.pop();
            }
            tl.tails = tails;
            tl.mean_tasks = mean_counts
                .iter()
                .enumerate()
                .map(|(d, &m)| d as f64 * m)
                .sum();
        }

        if tl.start == f64::INFINITY {
            tl.start = 0.0;
            tl.end = 0.0;
        }
        tl.steady_at = detect_steady(&tl.heartbeats, self.steady_tolerance);
        tl
    }
}

impl Recorder for TimelineReplay {
    fn record(&mut self, ev: &Event) {
        let warmup = self.tl.warmup;
        match *ev {
            Event::Sim {
                kind,
                t,
                proc,
                src,
                count,
            } => {
                let p = proc as usize;
                self.grow((p + 1).max(src.map_or(0, |s| s as usize + 1)));
                let tl = &mut self.tl;
                tl.start = tl.start.min(t);
                tl.end = tl.end.max(t);
                let measured = t >= warmup;
                match kind {
                    SimEventKind::Arrival => {
                        tl.counts.arrivals += 1;
                        tl.per_proc[p].arrivals += 1;
                        if measured {
                            tl.measured.arrivals += 1;
                        }
                        self.adjust(p, 1, t);
                    }
                    SimEventKind::Completion => {
                        tl.counts.completions += 1;
                        tl.per_proc[p].completions += 1;
                        if measured {
                            tl.measured.completions += 1;
                        }
                        self.adjust(p, -1, t);
                    }
                    SimEventKind::StealAttempt => {
                        tl.counts.steal_attempts += 1;
                        tl.per_proc[p].steal_attempts += 1;
                        if measured {
                            tl.measured.steal_attempts += 1;
                        }
                    }
                    SimEventKind::StealSuccess => {
                        tl.counts.steal_successes += 1;
                        tl.per_proc[p].steal_successes += 1;
                        if measured {
                            tl.measured.steal_successes += 1;
                        }
                    }
                    SimEventKind::Migration => {
                        tl.counts.migrations += 1;
                        tl.counts.tasks_migrated += count as u64;
                        tl.per_proc[p].tasks_in += count as u64;
                        if measured {
                            tl.measured.migrations += 1;
                            tl.measured.tasks_migrated += count as u64;
                        }
                        self.adjust(p, count as i64, t);
                        match src {
                            Some(s) => {
                                self.tl.per_proc[s as usize].tasks_out += count as u64;
                                self.adjust(s as usize, -(count as i64), t);
                            }
                            None => self.tl.sourceless_migrations += 1,
                        }
                    }
                }
            }
            Event::Heartbeat {
                t,
                events,
                tasks_in_system,
            } => {
                let tl = &mut self.tl;
                tl.start = tl.start.min(t);
                tl.end = tl.end.max(t);
                tl.counts.heartbeats += 1;
                if t >= warmup {
                    tl.measured.heartbeats += 1;
                }
                tl.heartbeats.push((t, events, tasks_in_system));
            }
            Event::SolverStep { accepted, .. } => {
                if accepted {
                    self.tl.solver.steps_accepted += 1;
                } else {
                    self.tl.solver.steps_rejected += 1;
                }
            }
            Event::SolverSteady { t, residual } => {
                self.tl.solver.residuals.push((t, residual));
            }
            Event::SolverDone {
                accepted,
                rejected,
                converged,
                residual,
                ..
            } => {
                // Per-step events may be absent (the solver can be
                // traced summary-only); trust the totals.
                let solver = &mut self.tl.solver;
                solver.steps_accepted = solver.steps_accepted.max(accepted);
                solver.steps_rejected = solver.steps_rejected.max(rejected);
                solver.converged = Some(converged);
                solver.final_residual = Some(residual);
            }
            Event::ReplicateDone { .. } => {
                self.tl.replicates += 1;
            }
            // Per-job lifecycle events only widen the trace window;
            // queue depths are driven by the Sim arrival/completion/
            // migration stream, and counting Job events too would
            // double-book every transition. Tail samples are derived
            // state (the transient module consumes them); here they
            // only widen the window too.
            Event::Job { t, .. } | Event::TailSample { t, .. } => {
                self.tl.start = self.tl.start.min(t);
                self.tl.end = self.tl.end.max(t);
            }
        }
    }
}

impl Timeline {
    /// Replay `events` into a timeline.
    pub fn build(events: &[Event], cfg: &TimelineConfig) -> Self {
        let mut replay = TimelineReplay::new(cfg);
        events.iter().for_each(|ev| replay.record(ev));
        replay.finish()
    }

    /// Post-warmup measurement span.
    pub fn span(&self) -> f64 {
        (self.end - self.warmup).max(0.0)
    }

    /// Measured per-processor arrival rate `λ̂` (arrivals per processor
    /// per unit time over the measurement window).
    pub fn arrival_rate(&self) -> f64 {
        let span = self.span();
        if self.n_procs == 0 || span == 0.0 {
            return 0.0;
        }
        self.measured.arrivals as f64 / (self.n_procs as f64 * span)
    }

    /// Measured per-processor completion rate over the window.
    pub fn throughput(&self) -> f64 {
        let span = self.span();
        if self.n_procs == 0 || span == 0.0 {
            return 0.0;
        }
        self.measured.completions as f64 / (self.n_procs as f64 * span)
    }

    /// Mean sojourn time via Little's law: `Ŵ = L̂ / λ̂_total`, with
    /// `L̂` the time-averaged tasks in system and `λ̂_total` the total
    /// measured arrival rate. Exact for a stationary window; `None`
    /// when no arrivals were measured.
    pub fn mean_sojourn_little(&self) -> Option<f64> {
        let span = self.span();
        if span == 0.0 || self.measured.arrivals == 0 {
            return None;
        }
        let lambda_total = self.measured.arrivals as f64 / span;
        Some(self.mean_tasks / lambda_total)
    }

    /// Measured geometric-mean tail ratio `s_{i+1}/s_i` over the
    /// depths where both tails are resolvable, skipping `s_0 → s_1`
    /// (that ratio is the utilization, not the decay rate). This is the
    /// quantity the mean-field analysis predicts to approach
    /// `λ/(1+λ−π₂)` for the paper's work-stealing model.
    pub fn tail_ratio(&self) -> Option<f64> {
        // Tails below this are dominated by a handful of brief
        // excursions and add noise, not signal.
        const FLOOR: f64 = 1e-4;
        let mut log_sum = 0.0;
        let mut terms = 0usize;
        for i in 1..self.tails.len().saturating_sub(1) {
            let (a, b) = (self.tails[i], self.tails[i + 1]);
            if a > FLOOR && b > FLOOR {
                log_sum += (b / a).ln();
                terms += 1;
            }
        }
        (terms > 0).then(|| (log_sum / terms as f64).exp())
    }

    /// Fraction of measured steal attempts that succeeded.
    pub fn steal_success_rate(&self) -> f64 {
        if self.measured.steal_attempts == 0 {
            0.0
        } else {
            self.measured.steal_successes as f64 / self.measured.steal_attempts as f64
        }
    }
}

/// Earliest heartbeat time after which the `tasks_in_system` series
/// looks stationary: its first- and second-half means agree within
/// `tol` (relative to the overall mean). Needs at least 4 samples past
/// the candidate onset.
fn detect_steady(heartbeats: &[(f64, u64, u64)], tol: f64) -> Option<f64> {
    let series: Vec<(f64, f64)> = heartbeats
        .iter()
        .map(|&(t, _, tasks)| (t, tasks as f64))
        .collect();
    for k in 0..series.len() {
        let rest = &series[k..];
        if rest.len() < 4 {
            break;
        }
        let mid = rest.len() / 2;
        let mean = |s: &[(f64, f64)]| s.iter().map(|&(_, v)| v).sum::<f64>() / s.len() as f64;
        let (a, b) = (mean(&rest[..mid]), mean(&rest[mid..]));
        let overall = mean(rest);
        if overall == 0.0 || ((a - b) / overall).abs() <= tol {
            return Some(rest[0].0);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(kind: SimEventKind, t: f64, proc: u32) -> Event {
        Event::Sim {
            kind,
            t,
            proc,
            src: None,
            count: 1,
        }
    }

    fn migration(t: f64, dst: u32, src: u32, count: u32) -> Event {
        Event::Sim {
            kind: SimEventKind::Migration,
            t,
            proc: dst,
            src: Some(src),
            count,
        }
    }

    #[test]
    fn empty_trace_builds_an_empty_timeline() {
        let tl = Timeline::build(&[], &TimelineConfig::default());
        assert_eq!(tl.n_procs, 0);
        assert_eq!(tl.span(), 0.0);
        assert_eq!(tl.arrival_rate(), 0.0);
        assert!(tl.mean_sojourn_little().is_none());
        assert!(tl.tails.is_empty());
    }

    #[test]
    fn queue_replay_tracks_depths_and_tails() {
        use SimEventKind::*;
        // Two processors over [0, 10]: proc 0 holds one task for the
        // interval [1, 6]; proc 1 stays empty.
        let events = [
            sim(Arrival, 1.0, 0),
            sim(Completion, 6.0, 0),
            sim(Arrival, 10.0, 1), // closes the window at t = 10
            sim(Completion, 10.0, 1),
        ];
        let tl = Timeline::build(&events, &TimelineConfig::default());
        assert_eq!(tl.n_procs, 2);
        assert_eq!(tl.counts.arrivals, 2);
        assert_eq!(tl.per_proc[0].arrivals, 1);
        assert!((tl.per_proc[0].mean_depth - 0.5).abs() < 1e-12);
        assert!((tl.per_proc[0].busy_fraction - 0.5).abs() < 1e-12);
        assert_eq!(tl.per_proc[1].mean_depth, 0.0);
        // s_1 = one of two procs busy half the time = 0.25.
        assert!((tl.tails[1] - 0.25).abs() < 1e-12, "{:?}", tl.tails);
        assert!((tl.tails[0] - 1.0).abs() < 1e-12);
        assert!((tl.mean_tasks - 0.5).abs() < 1e-12);
    }

    #[test]
    fn migrations_move_depth_between_processors() {
        use SimEventKind::*;
        let events = [
            sim(Arrival, 0.0, 0),
            sim(Arrival, 0.0, 0),
            sim(Arrival, 0.0, 0),
            // 2 tasks hop 0 → 1 at t = 5.
            migration(5.0, 1, 0, 2),
            sim(Completion, 10.0, 1),
        ];
        let tl = Timeline::build(&events, &TimelineConfig::default());
        assert_eq!(tl.per_proc[0].tasks_out, 2);
        assert_eq!(tl.per_proc[1].tasks_in, 2);
        assert_eq!(tl.per_proc[0].final_depth, 1);
        assert_eq!(tl.per_proc[1].final_depth, 1);
        assert_eq!(tl.depth_underflows, 0);
        // proc 0: depth 3 for [0,5], 1 for [5,10] → mean 2.
        assert!((tl.per_proc[0].mean_depth - 2.0).abs() < 1e-12);
        // proc 1: depth 0 for [0,5], 2 for [5,10] → mean 1.
        assert!((tl.per_proc[1].mean_depth - 1.0).abs() < 1e-12);
        assert!((tl.mean_tasks - 3.0).abs() < 1e-12);
    }

    #[test]
    fn warmup_excludes_early_activity_from_averages() {
        use SimEventKind::*;
        let events = [
            sim(Arrival, 0.0, 0),
            sim(Completion, 4.0, 0), // entirely pre-warmup
            sim(Arrival, 5.0, 0),
            sim(Completion, 20.0, 0),
        ];
        let cfg = TimelineConfig {
            warmup: 10.0,
            ..TimelineConfig::default()
        };
        let tl = Timeline::build(&events, &cfg);
        assert_eq!(tl.counts.arrivals, 2);
        assert_eq!(tl.measured.arrivals, 0); // both arrived before warmup
        assert_eq!(tl.measured.completions, 1);
        // Depth 1 over [10, 20] (the task arrived at 5, pre-warmup).
        assert!((tl.per_proc[0].mean_depth - 1.0).abs() < 1e-12);
        assert!((tl.span() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn underflow_is_counted_not_wrapped() {
        use SimEventKind::*;
        let events = [sim(Completion, 1.0, 0), sim(Completion, 2.0, 0)];
        let tl = Timeline::build(&events, &TimelineConfig::default());
        assert_eq!(tl.depth_underflows, 2);
        assert_eq!(tl.per_proc[0].final_depth, 0);
    }

    #[test]
    fn migrations_without_a_donor_are_flagged() {
        use SimEventKind::*;
        // A legacy trace whose migrations only name the receiver: the
        // donated task is double-counted, so the replay must say so.
        let events = [sim(Arrival, 1.0, 0), sim(Migration, 2.0, 1)];
        let tl = Timeline::build(&events, &TimelineConfig::default());
        assert_eq!(tl.sourceless_migrations, 1);
        assert_eq!(tl.per_proc[0].final_depth, 1); // donor never debited
        assert_eq!(tl.per_proc[1].final_depth, 1);
        let two_sided = [sim(Arrival, 1.0, 0), migration(2.0, 1, 0, 1)];
        let tl2 = Timeline::build(&two_sided, &TimelineConfig::default());
        assert_eq!(tl2.sourceless_migrations, 0);
        assert_eq!(tl2.per_proc[0].final_depth, 0);
    }

    #[test]
    fn littles_law_recovers_sojourn_for_a_simple_stream() {
        use SimEventKind::*;
        // One proc, deterministic: a task arrives every 2s and stays
        // exactly 1s. λ_total = 0.5, L = 0.5 → W = 1.
        let mut events = Vec::new();
        for k in 0..50 {
            let t = 2.0 * k as f64;
            events.push(sim(Arrival, t, 0));
            events.push(sim(Completion, t + 1.0, 0));
        }
        // Close the window exactly at the last completion.
        let cfg = TimelineConfig::default();
        let tl = Timeline::build(&events, &cfg);
        let w = tl.mean_sojourn_little().unwrap();
        // End = 99, span 99, 50 arrivals: small edge effects.
        assert!((w - 1.0).abs() < 0.05, "W = {w}");
    }

    #[test]
    fn solver_events_summarize() {
        let events = [
            Event::SolverStep {
                accepted: true,
                t: 0.0,
                h: 0.1,
                err_norm: 0.5,
            },
            Event::SolverStep {
                accepted: false,
                t: 0.1,
                h: 0.2,
                err_norm: 2.0,
            },
            Event::SolverSteady {
                t: 0.1,
                residual: 1e-3,
            },
            Event::SolverDone {
                accepted: 10,
                rejected: 3,
                min_h: 0.01,
                max_h: 0.5,
                max_reject_streak: 2,
                converged: true,
                residual: 1e-9,
            },
        ];
        let tl = Timeline::build(&events, &TimelineConfig::default());
        // solver_done totals dominate partial per-step counts.
        assert_eq!(tl.solver.steps_accepted, 10);
        assert_eq!(tl.solver.steps_rejected, 3);
        assert_eq!(tl.solver.steps_total(), 13);
        assert_eq!(tl.solver.converged, Some(true));
        assert_eq!(tl.solver.residuals.len(), 1);
        assert_eq!(tl.solver.final_residual, Some(1e-9));
    }

    #[test]
    fn steady_state_detection_finds_the_plateau() {
        // Ramp 0→100 over five beats, then stable around 100.
        let mut hb = Vec::new();
        for (i, v) in [0u64, 25, 50, 75, 95, 100, 101, 99, 100, 100, 101, 99]
            .iter()
            .enumerate()
        {
            hb.push((i as f64 * 10.0, i as u64 * 1000, *v));
        }
        let steady = detect_steady(&hb, 0.05).expect("plateau exists");
        // Onset detected somewhere in the ramp's tail, not at t = 0.
        assert!(steady > 0.0, "{steady}");
        assert!(steady <= 50.0, "{steady}");
        // A pure ramp never qualifies.
        let ramp: Vec<(f64, u64, u64)> = (0..10).map(|i| (i as f64, 0, i as u64 * 100)).collect();
        assert_eq!(detect_steady(&ramp, 0.05), None);
    }

    #[test]
    fn tail_ratio_of_geometric_tails_is_the_ratio() {
        use SimEventKind::*;
        // Synthesize a trace whose tails decay geometrically: a single
        // proc ping-pongs between depths so that time at depth ≥ i
        // halves with i. Simpler: check against hand-set tails via a
        // two-depth trace, then the formulaic accessor on a fabricated
        // timeline.
        let events = [
            sim(Arrival, 0.0, 0),
            sim(Arrival, 0.0, 0),
            sim(Completion, 5.0, 0),
            sim(Completion, 10.0, 0),
        ];
        let mut tl = Timeline::build(&events, &TimelineConfig::default());
        // tails = [1, 1, 0.5]: ratio over i=1 → 0.5.
        assert!((tl.tails[2] - 0.5).abs() < 1e-12, "{:?}", tl.tails);
        assert!((tl.tail_ratio().unwrap() - 0.5).abs() < 1e-12);
        // Fabricated long geometric tail.
        tl.tails = vec![1.0, 0.9, 0.45, 0.225, 0.1125];
        let r = tl.tail_ratio().unwrap();
        assert!((r - 0.5).abs() < 1e-12, "{r}");
    }

    #[test]
    fn replicate_done_events_are_counted() {
        let events = [
            Event::ReplicateDone {
                seed: 1,
                wall_ms: 2.0,
                events: 100,
                events_per_sec: 5e4,
            },
            Event::ReplicateDone {
                seed: 2,
                wall_ms: 2.1,
                events: 101,
                events_per_sec: 4.8e4,
            },
        ];
        let tl = Timeline::build(&events, &TimelineConfig::default());
        assert_eq!(tl.replicates, 2);
    }
}
