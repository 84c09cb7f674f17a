//! Online sim-vs-ODE transient comparison.
//!
//! `loadsteal simulate --sample-tails <dt>` makes the engine emit
//! [`Event::TailSample`] records: the instantaneous empirical tail
//! vector `ŝ₁…ŝ_k(t)` on a uniform time grid. This module replays that
//! sample stream against the mean-field ODE solution integrated on the
//! same grid and quantifies how far the finite-n system strays from
//! the n → ∞ trajectory:
//!
//! * **per-time residuals** `ŝᵢ(t) − sᵢ(t)` for each tracked tail,
//! * the **sup-norm deviation** `‖ŝ − s‖∞` over the whole trajectory,
//! * the **empirical relaxation time** — the first sample instant from
//!   which the trajectory stays within ε of the fixed point — next to
//!   the ODE's own settling time, and
//! * **drift events**: instants where a residual exceeds a CI-derived
//!   envelope (Kurtz fluctuations are `O(1/√n)`, the mean drift is
//!   `O(1/n)`, so the envelope is
//!   `z·√(s(1−s)/(n·runs)) + c·s/n + floor`).
//!
//! Layering note: like [`crate::report`], the ODE side is an *input* —
//! the CLI integrates the model with `loadsteal-core` and passes the
//! sampled trajectory in as plain data, so this crate keeps its
//! obs-only dependency footprint.

use loadsteal_obs::{Event, Recorder, TAIL_SAMPLE_DEPTH};

/// One `tail_sample` event, lifted out of the stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplePoint {
    /// Simulated time of the sample.
    pub t: f64,
    /// Empirical tails `ŝ₁…ŝ₈`; entries past `depth` are zero.
    pub tails: [f64; TAIL_SAMPLE_DEPTH],
    /// Number of leading entries actually carried on the wire.
    pub depth: usize,
}

/// The streaming front half of the transient comparison: a
/// [`Recorder`] keeping only `tail_sample` events, whose
/// [`finish`](Self::finish) groups them for [`TransientAnalysis::from_groups`].
#[derive(Debug, Clone, Default)]
pub struct TailSamples {
    /// Every tail sample seen, in stream order.
    pub samples: Vec<SamplePoint>,
}

impl Recorder for TailSamples {
    fn record(&mut self, ev: &Event) {
        if let Event::TailSample { t, tails, depth } = *ev {
            self.samples.push(SamplePoint {
                t,
                tails,
                depth: depth as usize,
            });
        }
    }
}

impl TailSamples {
    /// The samples grouped by instant ([`group_by_time`]).
    pub fn finish(self) -> Vec<GroupedSample> {
        group_by_time(&self.samples)
    }
}

/// Pull every tail sample out of an event stream, in stream order.
pub fn extract_samples(events: &[Event]) -> Vec<SamplePoint> {
    let mut samples = TailSamples::default();
    events.iter().for_each(|ev| samples.record(ev));
    samples.samples
}

/// All samples taken at one grid instant (one per replicate when the
/// trace interleaves several runs).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedSample {
    /// The shared sample instant.
    pub t: f64,
    /// One tail vector per replicate that sampled at `t`.
    pub runs: Vec<[f64; TAIL_SAMPLE_DEPTH]>,
    /// Maximum wire depth across the replicates.
    pub depth: usize,
}

impl GroupedSample {
    /// Cross-replicate mean tail vector at this instant.
    pub fn mean(&self) -> [f64; TAIL_SAMPLE_DEPTH] {
        let mut m = [0.0f64; TAIL_SAMPLE_DEPTH];
        if self.runs.is_empty() {
            return m;
        }
        for run in &self.runs {
            for (acc, v) in m.iter_mut().zip(run) {
                *acc += v;
            }
        }
        let k = self.runs.len() as f64;
        for acc in &mut m {
            *acc /= k;
        }
        m
    }
}

/// Sort samples by time and merge samples taken at the same instant
/// (relative tolerance `1e-9`, so replicates emitting on the same
/// additive grid coalesce). Samples with a non-finite timestamp (a
/// `null` in a lossy trace) are dropped.
pub fn group_by_time(samples: &[SamplePoint]) -> Vec<GroupedSample> {
    let mut sorted: Vec<&SamplePoint> = samples.iter().filter(|s| s.t.is_finite()).collect();
    sorted.sort_by(|a, b| a.t.partial_cmp(&b.t).expect("finite times"));
    let mut out: Vec<GroupedSample> = Vec::new();
    for s in sorted {
        match out.last_mut() {
            Some(g) if same_instant(g.t, s.t) => {
                g.runs.push(s.tails);
                g.depth = g.depth.max(s.depth);
            }
            _ => out.push(GroupedSample {
                t: s.t,
                runs: vec![s.tails],
                depth: s.depth,
            }),
        }
    }
    out
}

fn same_instant(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Infer the sampling grid `(dt, t_end)` from grouped samples: `dt` is
/// the smallest spacing between consecutive distinct instants (or the
/// first instant when only one exists), `t_end` the last instant.
pub fn grid_of(groups: &[GroupedSample]) -> Option<(f64, f64)> {
    let first = groups.first()?;
    let mut dt = first.t;
    for w in groups.windows(2) {
        let gap = w[1].t - w[0].t;
        if gap > 0.0 {
            dt = if dt > 0.0 { dt.min(gap) } else { gap };
        }
    }
    (dt > 0.0).then(|| (dt, groups.last().expect("non-empty").t))
}

/// The CI-derived residual envelope.
///
/// At sample size `n·runs`, the empirical tail `ŝᵢ(t)` fluctuates
/// around the ODE value with standard deviation `≈ √(s(1−s)/(n·runs))`
/// (Kurtz), and its mean drifts by `O(1/n)` (the finite-n bias). The
/// envelope adds an absolute floor so near-deterministic tails don't
/// produce zero-width bands:
///
/// ```text
/// bound(s) = z·√(s(1−s)/(n·runs)) + finite_n_rel·s/n + abs_floor
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    /// Normal quantile for the fluctuation term (default 3.29 ≈ 99.9%).
    pub z: f64,
    /// Finite-n bias allowance, relative to the predicted tail.
    pub finite_n_rel: f64,
    /// Absolute slack added to every bound.
    pub abs_floor: f64,
}

impl Default for Envelope {
    fn default() -> Self {
        Self {
            z: 3.29,
            finite_n_rel: 2.0,
            abs_floor: 0.01,
        }
    }
}

impl Envelope {
    /// Bound on `|ŝᵢ(t) − sᵢ(t)|` for predicted tail `predicted`,
    /// `n_procs` processors, and `runs` averaged replicates.
    pub fn bound(&self, predicted: f64, n_procs: usize, runs: usize) -> f64 {
        let n = (n_procs.max(1) * runs.max(1)) as f64;
        let p = predicted.clamp(0.0, 1.0);
        self.z * (p * (1.0 - p) / n).sqrt()
            + self.finite_n_rel * p / n_procs.max(1) as f64
            + self.abs_floor
    }
}

/// Knobs for [`TransientAnalysis::build`].
#[derive(Debug, Clone, PartialEq)]
pub struct TransientOptions {
    /// Number of processors behind each sample (sets the envelope
    /// width; take it from the trace header).
    pub n_procs: usize,
    /// Tails to compare. `0` means "deepest tail any sample carried".
    pub depth: usize,
    /// Relaxation threshold: the trajectory has relaxed once it stays
    /// within `epsilon` (sup-norm) of the fixed point.
    pub epsilon: f64,
    /// Drift envelope parameters.
    pub envelope: Envelope,
}

impl TransientOptions {
    /// Defaults for an `n_procs`-processor trace: auto depth, ε = 0.02,
    /// default envelope.
    pub fn new(n_procs: usize) -> Self {
        Self {
            n_procs,
            depth: 0,
            epsilon: 0.02,
            envelope: Envelope::default(),
        }
    }
}

/// One comparison instant: cross-run mean tails vs the ODE solution.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidualPoint {
    /// Sample instant.
    pub t: f64,
    /// Empirical tails `ŝ₁…ŝ_depth` (cross-run mean).
    pub sim: Vec<f64>,
    /// ODE tails `s₁(t)…s_depth(t)`.
    pub ode: Vec<f64>,
    /// `maxᵢ |ŝᵢ(t) − sᵢ(t)|`.
    pub sup: f64,
    /// Replicates averaged at this instant.
    pub runs: usize,
}

/// A residual that escaped the CI envelope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftEvent {
    /// Instant of the breach.
    pub t: f64,
    /// Tail index (1-based: `1` is the busy fraction `s₁`).
    pub tail: usize,
    /// Signed residual `ŝᵢ(t) − sᵢ(t)`.
    pub residual: f64,
    /// Envelope bound it exceeded.
    pub bound: f64,
}

/// The full sim-vs-ODE transient comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientAnalysis {
    /// Per-instant residuals, time-ordered.
    pub points: Vec<ResidualPoint>,
    /// Tails compared at each instant.
    pub depth: usize,
    /// Processors behind each sample (from the options).
    pub n_procs: usize,
    /// Sup-norm deviation `‖ŝ − s‖∞` over the whole trajectory.
    pub residual_sup: f64,
    /// Where the sup was attained: `(t, tail)` (1-based tail).
    pub residual_sup_at: Option<(f64, usize)>,
    /// Mean of `|ŝᵢ(t) − sᵢ(t)|` over all comparisons.
    pub mean_abs_residual: f64,
    /// Per-tail sup residual, indices `0…depth-1` ↔ tails `1…depth`.
    pub per_tail_sup: Vec<f64>,
    /// First sample instant from which the empirical trajectory stays
    /// within ε of the fixed point (`None`: never relaxes, or no fixed
    /// point was supplied).
    pub relaxation_time: Option<f64>,
    /// Same notion evaluated on the ODE trajectory.
    pub ode_settling_time: Option<f64>,
    /// Relaxation threshold used.
    pub epsilon: f64,
    /// Envelope the drift events were judged against.
    pub envelope: Envelope,
    /// Residuals outside the CI envelope, time-ordered.
    pub drift: Vec<DriftEvent>,
    /// Total `(instant, tail)` comparisons made.
    pub comparisons: usize,
    /// Samples without a matching ODE grid instant (grid mismatch).
    pub unmatched: usize,
}

impl TransientAnalysis {
    /// Replay the tail samples in `events` against `ode`, the model
    /// trajectory sampled on the same grid (`(t, tails)` with
    /// `tails[0] = s₀ = 1`, as produced by the core trajectory
    /// sampler). `fixed_point` is the model's fixed-point tail vector
    /// (same convention) and drives the relaxation clocks; pass `None`
    /// to skip them.
    pub fn build(
        events: &[Event],
        ode: &[(f64, Vec<f64>)],
        fixed_point: Option<&[f64]>,
        opts: &TransientOptions,
    ) -> Self {
        let groups = group_by_time(&extract_samples(events));
        Self::from_groups(&groups, ode, fixed_point, opts)
    }

    /// Like [`TransientAnalysis::build`], starting from already
    /// grouped samples.
    pub fn from_groups(
        groups: &[GroupedSample],
        ode: &[(f64, Vec<f64>)],
        fixed_point: Option<&[f64]>,
        opts: &TransientOptions,
    ) -> Self {
        let depth = if opts.depth > 0 {
            opts.depth.min(TAIL_SAMPLE_DEPTH)
        } else {
            groups.iter().map(|g| g.depth).max().unwrap_or(0).max(1)
        };

        let mut points = Vec::with_capacity(groups.len());
        let mut drift = Vec::new();
        let mut unmatched = 0usize;
        let mut sup = 0.0f64;
        let mut sup_at = None;
        let mut per_tail_sup = vec![0.0f64; depth];
        let mut abs_sum = 0.0f64;
        let mut comparisons = 0usize;

        let mut cursor = 0usize; // monotone pointer into `ode`
        for g in groups {
            while cursor < ode.len() && ode[cursor].0 < g.t && !same_instant(ode[cursor].0, g.t) {
                cursor += 1;
            }
            let Some((_, ode_tails)) = ode.get(cursor).filter(|(t, _)| same_instant(*t, g.t))
            else {
                unmatched += 1;
                continue;
            };

            let mean = g.mean();
            let mut sim = Vec::with_capacity(depth);
            let mut ode_row = Vec::with_capacity(depth);
            let mut point_sup = 0.0f64;
            for i in 1..=depth {
                let hat = mean[i - 1];
                let s = ode_tails.get(i).copied().unwrap_or(0.0);
                let r = hat - s;
                sim.push(hat);
                ode_row.push(s);
                comparisons += 1;
                abs_sum += r.abs();
                point_sup = point_sup.max(r.abs());
                if r.abs() > per_tail_sup[i - 1] {
                    per_tail_sup[i - 1] = r.abs();
                }
                if r.abs() > sup {
                    sup = r.abs();
                    sup_at = Some((g.t, i));
                }
                let bound = opts.envelope.bound(s, opts.n_procs, g.runs.len());
                if r.abs() > bound {
                    drift.push(DriftEvent {
                        t: g.t,
                        tail: i,
                        residual: r,
                        bound,
                    });
                }
            }
            points.push(ResidualPoint {
                t: g.t,
                sim,
                ode: ode_row,
                sup: point_sup,
                runs: g.runs.len(),
            });
        }

        let relaxation_time = fixed_point.and_then(|fp| {
            relaxation_of(
                points.iter().map(|p| (p.t, p.sim.as_slice())),
                fp,
                opts.epsilon,
            )
        });
        let ode_settling_time = fixed_point.and_then(|fp| {
            relaxation_of(
                ode.iter()
                    .map(|(t, tails)| (*t, tails.get(1..).unwrap_or(&[]))),
                fp,
                opts.epsilon,
            )
        });

        Self {
            points,
            depth,
            n_procs: opts.n_procs,
            residual_sup: sup,
            residual_sup_at: sup_at,
            mean_abs_residual: if comparisons > 0 {
                abs_sum / comparisons as f64
            } else {
                0.0
            },
            per_tail_sup,
            relaxation_time,
            ode_settling_time,
            epsilon: opts.epsilon,
            envelope: opts.envelope,
            drift,
            comparisons,
            unmatched,
        }
    }
}

/// Earliest instant from which every later point stays within `eps`
/// (sup-norm over the compared tails) of the fixed point. The iterator
/// yields `(t, tails)` with `tails[0] = s₁`; `fp` uses the model
/// convention `fp[0] = s₀ = 1`.
fn relaxation_of<'a>(
    traj: impl Iterator<Item = (f64, &'a [f64])>,
    fp: &[f64],
    eps: f64,
) -> Option<f64> {
    let mut relaxed_since: Option<f64> = None;
    for (t, tails) in traj {
        let dev = tails
            .iter()
            .enumerate()
            .map(|(j, hat)| (hat - fp.get(j + 1).copied().unwrap_or(0.0)).abs())
            .fold(0.0f64, f64::max);
        if dev <= eps {
            relaxed_since.get_or_insert(t);
        } else {
            relaxed_since = None;
        }
    }
    relaxed_since
}

const SUBSCRIPTS: [char; 10] = ['₀', '₁', '₂', '₃', '₄', '₅', '₆', '₇', '₈', '₉'];

fn sub(i: usize) -> String {
    if i < 10 {
        SUBSCRIPTS[i].to_string()
    } else {
        format!("_{i}")
    }
}

/// Maximum trajectory rows printed before elision kicks in.
const MAX_TABLE_ROWS: usize = 24;
/// Tail columns shown in the trajectory table (the summary still
/// covers every compared tail).
const MAX_TABLE_TAILS: usize = 3;

/// Render the transient comparison: trajectory table, deviation
/// summary, and drift warnings.
pub fn render_transient(a: &TransientAnalysis) -> String {
    let mut out = String::new();
    if a.points.is_empty() {
        out.push_str("no tail samples in trace (run simulate with --sample-tails <dt>)\n");
        if a.unmatched > 0 {
            out.push_str(&format!(
                "  ({} samples had no matching ODE grid instant)\n",
                a.unmatched
            ));
        }
        return out;
    }

    let dt = if a.points.len() >= 2 {
        a.points[1].t - a.points[0].t
    } else {
        a.points[0].t
    };
    let runs = a.points.iter().map(|p| p.runs).max().unwrap_or(1);
    out.push_str(&format!(
        "transient trajectory  ({} instants, depth {}, dt ≈ {:.3}{})\n",
        a.points.len(),
        a.depth,
        dt,
        if runs > 1 {
            format!(", {runs} replicates averaged")
        } else {
            String::new()
        }
    ));

    let cols = a.depth.min(MAX_TABLE_TAILS);
    out.push_str(&format!("  {:>9}", "t"));
    for i in 1..=cols {
        out.push_str(&format!(
            "{:>9}{:>9}",
            format!("ŝ{}", sub(i)),
            format!("s{}(t)", sub(i))
        ));
    }
    out.push_str(&format!("{:>11}\n", "‖resid‖∞"));

    let stride = a.points.len().div_ceil(MAX_TABLE_ROWS).max(1);
    let last = a.points.len() - 1;
    for (idx, p) in a.points.iter().enumerate() {
        if idx % stride != 0 && idx != last {
            continue;
        }
        out.push_str(&format!("  {:>9.2}", p.t));
        for i in 0..cols {
            out.push_str(&format!("{:>9.4}{:>9.4}", p.sim[i], p.ode[i]));
        }
        out.push_str(&format!("{:>11.4}\n", p.sup));
    }
    if stride > 1 {
        out.push_str(&format!(
            "  … 1 in {} instants shown ({} total)\n",
            stride,
            a.points.len()
        ));
    }

    out.push_str("\ndeviation summary\n");
    out.push_str(&format!(
        "  compared            {:>8} points  ({} instants × {} tails)\n",
        a.comparisons,
        a.points.len(),
        a.depth
    ));
    match a.residual_sup_at {
        Some((t, i)) => out.push_str(&format!(
            "  sup-norm ‖ŝ−s‖∞    {:>8.4}  at t = {:.2} (tail s{})\n",
            a.residual_sup,
            t,
            sub(i)
        )),
        None => out.push_str(&format!("  sup-norm ‖ŝ−s‖∞    {:>8.4}\n", a.residual_sup)),
    }
    out.push_str(&format!(
        "  mean |residual|     {:>8.4}\n",
        a.mean_abs_residual
    ));
    out.push_str("  per-tail sup       ");
    for (i, s) in a.per_tail_sup.iter().enumerate() {
        out.push_str(&format!(" s{} {:.4}", sub(i + 1), s));
    }
    out.push('\n');
    out.push_str(&format!(
        "  relaxation (ε = {:.3})   sim {}   ode {}\n",
        a.epsilon,
        match a.relaxation_time {
            Some(t) => format!("{t:.2}"),
            None => "—".to_owned(),
        },
        match a.ode_settling_time {
            Some(t) => format!("{t:.2}"),
            None => "—".to_owned(),
        }
    ));
    out.push_str(&format!(
        "  drift events        {:>8}  (envelope: z = {:.2}, n = {})\n",
        a.drift.len(),
        a.envelope.z,
        a.n_procs
    ));
    if a.unmatched > 0 {
        out.push_str(&format!(
            "  WARNING: {} sample instants had no matching ODE grid point\n",
            a.unmatched
        ));
    }
    for d in a.drift.iter().take(5) {
        out.push_str(&format!(
            "  WARNING: drift at t = {:.2}, tail s{}: residual {:+.4} outside envelope ±{:.4}\n",
            d.t,
            sub(d.tail),
            d.residual,
            d.bound
        ));
    }
    if a.drift.len() > 5 {
        out.push_str(&format!(
            "  … and {} more drift events\n",
            a.drift.len() - 5
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64, s: &[f64]) -> Event {
        let mut tails = [0.0f64; TAIL_SAMPLE_DEPTH];
        let mut depth = 0u32;
        for (i, &v) in s.iter().enumerate() {
            tails[i] = v;
            if v != 0.0 {
                depth = i as u32 + 1;
            }
        }
        Event::TailSample { t, tails, depth }
    }

    /// A toy "ODE" trajectory relaxing exponentially towards s₁ = 0.5,
    /// s₂ = 0.25 on the grid dt = 1.
    fn toy_ode(steps: usize) -> Vec<(f64, Vec<f64>)> {
        (1..=steps)
            .map(|k| {
                let t = k as f64;
                let decay = (-t / 3.0).exp();
                (t, vec![1.0, 0.5 * (1.0 - decay), 0.25 * (1.0 - decay)])
            })
            .collect()
    }

    #[test]
    fn groups_replicates_and_averages() {
        let evs = vec![
            sample(1.0, &[0.4, 0.2]),
            sample(2.0, &[0.6, 0.3]),
            sample(1.0, &[0.6, 0.4]), // second replicate, same instant
        ];
        let groups = group_by_time(&extract_samples(&evs));
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].runs.len(), 2);
        let m = groups[0].mean();
        assert!((m[0] - 0.5).abs() < 1e-12);
        assert!((m[1] - 0.3).abs() < 1e-12);
        assert_eq!(grid_of(&groups), Some((1.0, 2.0)));
    }

    #[test]
    fn perfect_agreement_has_zero_residuals_and_no_drift() {
        let ode = toy_ode(30);
        let evs: Vec<Event> = ode
            .iter()
            .map(|(t, tails)| sample(*t, &tails[1..]))
            .collect();
        let fp = vec![1.0, 0.5, 0.25];
        let a = TransientAnalysis::build(&evs, &ode, Some(&fp), &TransientOptions::new(128));
        assert_eq!(a.points.len(), 30);
        assert_eq!(a.unmatched, 0);
        assert!(a.residual_sup < 1e-12, "sup = {}", a.residual_sup);
        assert!(a.drift.is_empty());
        // The toy system reaches ε = 0.02 of the fixed point once
        // 0.5·e^{−t/3} ≤ 0.02, i.e. t ≥ 3·ln(25) ≈ 9.66 → first grid
        // instant 10. Both clocks see the same trajectory here.
        assert_eq!(a.relaxation_time, Some(10.0));
        assert_eq!(a.ode_settling_time, Some(10.0));
    }

    #[test]
    fn persistent_offset_breaches_the_envelope() {
        let ode = toy_ode(30);
        let evs: Vec<Event> = ode
            .iter()
            .map(|(t, tails)| sample(*t, &[tails[1] + 0.2, tails[2]]))
            .collect();
        let a = TransientAnalysis::build(&evs, &ode, None, &TransientOptions::new(256));
        assert!((a.residual_sup - 0.2).abs() < 1e-12);
        let (_, tail) = a.residual_sup_at.unwrap();
        assert_eq!(tail, 1);
        assert!(
            !a.drift.is_empty(),
            "a 0.2 offset must escape the n = 256 envelope"
        );
        assert!(a.drift.iter().all(|d| d.tail == 1));
        assert!(a.drift.iter().all(|d| d.residual > d.bound));
    }

    #[test]
    fn small_noise_stays_inside_the_envelope() {
        let ode = toy_ode(30);
        // ±0.005 alternating noise: well inside the 0.01 floor.
        let evs: Vec<Event> = ode
            .iter()
            .enumerate()
            .map(|(k, (t, tails))| {
                let eps = if k % 2 == 0 { 0.005 } else { -0.005 };
                sample(*t, &[(tails[1] + eps).max(0.0), tails[2]])
            })
            .collect();
        let a = TransientAnalysis::build(&evs, &ode, None, &TransientOptions::new(64));
        assert!(a.drift.is_empty(), "drift: {:?}", a.drift);
        assert!(a.residual_sup <= 0.005 + 1e-12);
    }

    #[test]
    fn never_settling_trajectory_has_no_relaxation_time() {
        let ode = toy_ode(10);
        let evs: Vec<Event> = ode
            .iter()
            .map(|(t, tails)| sample(*t, &[tails[1] + 0.5, tails[2]]))
            .collect();
        let fp = vec![1.0, 0.5, 0.25];
        let a = TransientAnalysis::build(&evs, &ode, Some(&fp), &TransientOptions::new(64));
        assert_eq!(a.relaxation_time, None);
        assert!(a.ode_settling_time.is_some());
    }

    #[test]
    fn unmatched_instants_are_counted_not_compared() {
        let ode = toy_ode(5);
        let evs = vec![
            sample(1.0, &[0.1]),
            sample(2.5, &[0.2]),
            sample(3.0, &[0.3]),
        ];
        let a = TransientAnalysis::build(&evs, &ode, None, &TransientOptions::new(64));
        assert_eq!(a.unmatched, 1);
        assert_eq!(a.points.len(), 2);
    }

    #[test]
    fn render_mentions_summary_relaxation_and_drift() {
        let ode = toy_ode(30);
        let evs: Vec<Event> = ode
            .iter()
            .map(|(t, tails)| sample(*t, &[tails[1] + 0.3, tails[2]]))
            .collect();
        let fp = vec![1.0, 0.5, 0.25];
        let a = TransientAnalysis::build(&evs, &ode, Some(&fp), &TransientOptions::new(128));
        let text = render_transient(&a);
        assert!(text.contains("transient trajectory"), "{text}");
        assert!(text.contains("deviation summary"), "{text}");
        assert!(text.contains("sup-norm"), "{text}");
        assert!(text.contains("relaxation"), "{text}");
        assert!(text.contains("WARNING: drift"), "{text}");
    }

    #[test]
    fn render_handles_empty_traces() {
        let a = TransientAnalysis::build(&[], &[], None, &TransientOptions::new(64));
        let text = render_transient(&a);
        assert!(text.contains("no tail samples"), "{text}");
    }
}
