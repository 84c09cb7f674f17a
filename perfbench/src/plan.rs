//! The benchmark's inputs, defined once for the CLI runs (`run.py`
//! reads them through `perfbench plan`) and for the in-process runs.

use loadsteal_core::models::{MeanFieldModel, SimpleWs};
use loadsteal_core::{AnyModel, ModelRegistry, ModelSpec};
use loadsteal_obs::json::JsonBuf;
use loadsteal_sim::SimConfig;

/// One `loadsteal solve` input.
pub struct SolveCase {
    /// `heavy` or `light`.
    pub set: &'static str,
    /// The `solve` arguments as a user types them.
    pub args: Vec<String>,
    /// The model those arguments resolve to.
    pub spec: ModelSpec,
}

/// Heavy traffic, where integration dominates and the dense Newton
/// polish is skipped (simple WS above λ = 0.95; Erlang service has no
/// closed form and dimension 2817).
const HEAVY: [(&str, f64); 4] = [
    ("simple-ws", 0.95),
    ("simple-ws", 0.98),
    ("simple-ws", 0.99),
    ("erlang-service", 0.95),
];

/// Every solve input: the heavy set, then each registry preset at its
/// registry λ plus the CLI's default legacy spelling (`--model simple`).
///
/// Presets are passed as `<name>,lambda=<λ>`: several names
/// (`threshold`, `transfer`, …) are also legacy spellings, which take
/// `--lambda` and their own defaults and would resolve to another model.
pub fn solve_cases() -> Vec<SolveCase> {
    let case = |set, name: &str, lambda: f64| {
        let model = format!("{name},lambda={lambda}");
        SolveCase {
            set,
            spec: ModelSpec::parse(&model).expect("benchmark model specs parse"),
            args: vec!["--model".into(), model],
        }
    };
    let mut cases: Vec<SolveCase> = HEAVY.iter().map(|&(n, l)| case("heavy", n, l)).collect();
    for p in ModelRegistry::standard().presets() {
        cases.push(case("light", p.name, p.spec.lambda));
    }
    cases.push(SolveCase {
        set: "light",
        args: ["--model", "simple", "--lambda", "0.9"]
            .map(String::from)
            .to_vec(),
        spec: ModelSpec::simple_ws(0.9),
    });
    cases
}

/// The closed-form mean time in system, where the paper derives one:
/// simple WS from its geometric tails, no stealing as M/M/1.
pub fn closed_form_w(spec: &ModelSpec) -> Option<f64> {
    match spec.mean_field().ok()? {
        AnyModel::SimpleWs(m) => {
            let l: f64 = m.closed_form_tails().as_slice().iter().sum();
            Some(l / m.lambda())
        }
        AnyModel::NoSteal(m) => Some(m.closed_form_mean_time()),
        _ => None,
    }
}

/// One untraced `simulate --policy simple` configuration.
pub struct SimCase {
    pub name: &'static str,
    pub n: usize,
    pub lambda: f64,
    pub runs: usize,
    pub horizon: f64,
}

/// The paper's n = 128 system (its pending set fits in cache) and an
/// n = 65 536 one (it does not). Each is one run: with more, the calling
/// thread helps the pool's worker, so `simulate` runs them on two
/// threads, which on a shared 2-CPU host doubled the run-to-run spread.
pub const SIM_CASES: [SimCase; 2] = [
    SimCase {
        name: "n128",
        n: 128,
        lambda: 0.9,
        runs: 1,
        horizon: 16000.0,
    },
    SimCase {
        name: "n65536",
        n: 65_536,
        lambda: 0.9,
        runs: 1,
        horizon: 10.0,
    },
];

/// The traced simulate of the trace pipeline: one run (job ids are
/// per run), job lifecycle events and tail samples on.
pub const TRACE: SimCase = SimCase {
    name: "trace",
    n: 128,
    lambda: 0.9,
    runs: 1,
    horizon: 250.0,
};
/// Tail-sample spacing of the traced simulate.
pub const TRACE_SAMPLE_DT: f64 = 1.0;

/// Horizon of the short heap-versus-calendar comparison run.
pub const ENGINE_CHECK_HORIZON: f64 = 200.0;

/// The set-up round's minimal invocations: a light solve, then the
/// simulate and traced simulate (each with its mean-field companion
/// solve) that the analyzers read back.
pub const SETUP_SOLVE_MODEL: &str = "simple-ws,lambda=0.5";
pub const SETUP_SIM: SimCase = SimCase {
    name: "setup",
    n: 128,
    lambda: 0.9,
    runs: 1,
    horizon: 1.0,
};
pub const SETUP_SAMPLE_DT: f64 = 0.5;

impl SimCase {
    /// `simulate` arguments for this configuration (seed and outputs are
    /// appended by the caller).
    pub fn args(&self) -> Vec<String> {
        [
            "--policy".into(),
            "simple".into(),
            "--n".into(),
            self.n.to_string(),
            "--lambda".into(),
            self.lambda.to_string(),
            "--runs".into(),
            self.runs.to_string(),
            "--horizon".into(),
            self.horizon.to_string(),
        ]
        .to_vec()
    }

    /// The simulator configuration `simulate` builds from [`Self::args`]
    /// (warmup defaults to a tenth of the horizon).
    pub fn config(&self) -> SimConfig {
        let mut cfg = loadsteal_sim::sim_config(&ModelSpec::simple_ws(self.lambda), self.n)
            .expect("benchmark simulate configs are valid");
        cfg.horizon = self.horizon;
        cfg.warmup = self.horizon / 10.0;
        cfg
    }

    /// [`Self::args`] with job lifecycle events and tail samples every
    /// `dt` switched on.
    pub fn traced_args(&self, dt: f64) -> Vec<String> {
        let mut args = self.args();
        args.extend([
            "--trace-jobs".into(),
            "--sample-tails".into(),
            dt.to_string(),
        ]);
        args
    }

    /// Pending future events in steady state: one arrival per processor
    /// plus one completion per busy one.
    pub fn pending_events(&self) -> usize {
        (self.n as f64 * (1.0 + self.lambda)).round() as usize
    }
}

fn str_array(j: &mut JsonBuf, key: &str, items: &[String]) {
    j.key(key).begin_arr();
    for s in items {
        j.str_val(s);
    }
    j.end_arr();
}

/// Write the plan document.
pub fn write(j: &mut JsonBuf) {
    j.key("solve").begin_arr();
    for c in solve_cases() {
        j.begin_obj().field_str("set", c.set);
        str_array(j, "args", &c.args);
        j.key("closed_form_w");
        match closed_form_w(&c.spec) {
            Some(w) => j.f64_val(w),
            None => j.null_val(),
        };
        j.end_obj();
    }
    j.end_arr();
    j.key("simulate").begin_arr();
    for c in &SIM_CASES {
        j.begin_obj().field_str("name", c.name);
        str_array(j, "args", &c.args());
        j.end_obj();
    }
    j.end_arr();
    // The mean-field W the baseline simulator's mean sojourn is checked
    // against (it runs the n = 128 configuration).
    let baseline = SimpleWs::new(SIM_CASES[0].lambda).expect("benchmark λ is stable");
    j.field_f64("baseline_w", baseline.closed_form_mean_time());
    str_array(j, "trace_write", &TRACE.traced_args(TRACE_SAMPLE_DT));
    let mut engine = SimCase {
        horizon: ENGINE_CHECK_HORIZON,
        ..TRACE
    }
    .args();
    engine.push("--trace-jobs".into());
    str_array(j, "engine_check", &engine);
    str_array(
        j,
        "setup_solve",
        &["--model".into(), SETUP_SOLVE_MODEL.into()],
    );
    str_array(j, "setup_simulate", &SETUP_SIM.args());
    str_array(
        j,
        "setup_trace_write",
        &SETUP_SIM.traced_args(SETUP_SAMPLE_DT),
    );
}
