//! The `ode` and `core` layers: the solve sweep through
//! `solve_traced`, with a delegate model that counts and times every
//! right-hand-side evaluation and counts truncation growth.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use loadsteal_core::fixed_point::{solve, solve_traced, FixedPointOptions};
use loadsteal_core::models::MeanFieldModel;
use loadsteal_core::AnyModel;
use loadsteal_obs::CountingRecorder;
use loadsteal_ode::OdeSystem;

use crate::plan::SolveCase;
use crate::{timed, Check, Metrics};

#[derive(Debug, Default)]
struct ProbeStats {
    deriv_calls: Cell<u64>,
    deriv_ns: Cell<u64>,
    truncation_grows: Cell<u64>,
}

/// A model that forwards to `inner`, timing `deriv` and counting
/// `with_truncation` into shared counters (clones share them, since
/// the solver clones and re-truncates the model it is given).
#[derive(Clone)]
struct Probe<M> {
    inner: M,
    stats: Rc<ProbeStats>,
}

impl<M: MeanFieldModel> OdeSystem for Probe<M> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn deriv(&self, t: f64, y: &[f64], dy: &mut [f64]) {
        let t0 = Instant::now();
        self.inner.deriv(t, y, dy);
        let ns = t0.elapsed().as_nanos() as u64;
        let s = &self.stats;
        s.deriv_calls.set(s.deriv_calls.get() + 1);
        s.deriv_ns.set(s.deriv_ns.get() + ns);
    }

    fn project(&self, y: &mut [f64]) {
        self.inner.project(y);
    }
}

impl<M: MeanFieldModel> MeanFieldModel for Probe<M> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn lambda(&self) -> f64 {
        self.inner.lambda()
    }
    fn truncation(&self) -> usize {
        self.inner.truncation()
    }
    fn with_truncation(&self, levels: usize) -> Self {
        let grows = &self.stats.truncation_grows;
        grows.set(grows.get() + 1);
        Self {
            inner: self.inner.with_truncation(levels),
            stats: Rc::clone(&self.stats),
        }
    }
    fn empty_state(&self) -> Vec<f64> {
        self.inner.empty_state()
    }
    fn mean_tasks(&self, y: &[f64]) -> f64 {
        self.inner.mean_tasks(y)
    }
    fn task_tails(&self, y: &[f64]) -> Vec<f64> {
        self.inner.task_tails(y)
    }
    fn boundary_mass(&self, y: &[f64]) -> f64 {
        self.inner.boundary_mass(y)
    }
    fn mean_time_in_system(&self, y: &[f64]) -> f64 {
        self.inner.mean_time_in_system(y)
    }
}

fn model(case: &SolveCase) -> AnyModel {
    case.spec
        .mean_field()
        .expect("every benchmark solve case has mean-field equations")
}

/// Solve every case without instrumentation (the in-process twin of the
/// CLI sweep); returns the wall time and a check that every case
/// converged.
pub fn untraced(cases: &[SolveCase]) -> (f64, Check) {
    let opts = FixedPointOptions::default();
    let (failures, wall) = timed(|| {
        let mut failures = Vec::new();
        for c in cases {
            match solve(&model(c), &opts) {
                Ok(fp) => {
                    std::hint::black_box(fp);
                }
                Err(e) => failures.push(format!("{}: {e}", c.args.join(" "))),
            }
        }
        failures
    });
    let check = Check {
        name: "layers.solve_cases_converge".into(),
        ok: failures.is_empty(),
        detail: if failures.is_empty() {
            format!("{} cases", cases.len())
        } else {
            failures.join("; ")
        },
    };
    (wall, check)
}

/// Solve every case through the probe and a counting recorder, adding
/// the `ode.*` and `core.solve.*` metrics; returns the wall time.
///
/// Shares are taken against `plain_s`, the wall time of [`untraced`]:
/// the probe is a new model type, and the generic integrator compiled
/// for it runs its non-`deriv` work markedly slower than for the plain
/// model (a do-nothing wrapper does the same), while `deriv` itself is
/// the same compiled function in both. `core.solve.probe_slowdown`
/// records the gap. Cases that do not converge are left out (the
/// check from [`untraced`] reports them).
pub fn traced(cases: &[SolveCase], plain_s: f64, m: &mut Metrics) -> f64 {
    let opts = FixedPointOptions::default();
    let stats = Rc::new(ProbeStats::default());
    let mut rec = CountingRecorder::new();
    let (fps, wall) = timed(|| {
        cases
            .iter()
            .filter_map(|c| {
                let probe = Probe {
                    inner: model(c),
                    stats: Rc::clone(&stats),
                };
                solve_traced(&probe, &opts, &mut rec).ok()
            })
            .collect::<Vec<_>>()
    });
    let counts = rec.counts();
    let calls = stats.deriv_calls.get();
    let deriv_s = stats.deriv_ns.get() as f64 * 1e-9;
    let polished = fps.iter().filter(|fp| fp.polished).count();
    let final_dim = fps.iter().map(|fp| fp.state.len()).max().unwrap_or(0);
    m.add("ode.deriv.calls", calls as f64, "count");
    m.add("ode.deriv.ns_per_call", deriv_s * 1e9 / calls as f64, "ns");
    m.add("ode.deriv.share", deriv_s / plain_s, "ratio");
    m.add("ode.steps_accepted", counts.solver_accepted as f64, "count");
    m.add("ode.steps_rejected", counts.solver_rejected as f64, "count");
    m.add(
        "core.solve.truncation_grows",
        stats.truncation_grows.get() as f64,
        "count",
    );
    m.add("core.solve.final_dim", final_dim as f64, "count");
    m.add(
        "core.solve.polished_share",
        polished as f64 / fps.len() as f64,
        "ratio",
    );
    m.add("core.solve.other_s", plain_s - deriv_s, "s");
    m.add("core.solve.probe_slowdown", wall / plain_s, "ratio");
    wall
}
