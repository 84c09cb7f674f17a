//! `perfbench` — the in-process half of the loadsteal benchmark.
//!
//! `run.py` drives the release `loadsteal` binary for the end-to-end
//! numbers; this helper holds what has to run inside one process:
//!
//! * `plan` — the benchmark's inputs (solve cases with their closed-form
//!   W, simulate and trace configurations) as JSON, so the CLI runs and
//!   the in-process runs read one definition;
//! * `calibrate` — the fixed loop whose time is recorded with every
//!   result, so snapshots from different machines can be compared;
//! * `layers` — the traced run: the same inputs through the library
//!   crates' public functions, each call timed from here, plus the layer
//!   replays, the executor probes and the baseline simulator.
//!
//! Every subcommand prints one JSON document on stdout.

mod baseline;
mod layers;
mod plan;
mod solve;

use std::time::Instant;

use loadsteal_obs::json::JsonBuf;

/// Named per-layer measurements in output order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    fn write(&self, j: &mut JsonBuf) {
        j.key("metrics").begin_obj();
        for (name, value, unit) in &self.0 {
            j.key(name)
                .begin_obj()
                .field_f64("value", *value)
                .field_str("unit", unit)
                .end_obj();
        }
        j.end_obj();
    }
}

/// One output check: what was compared and whether it held.
#[derive(Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

fn write_checks(j: &mut JsonBuf, checks: &[Check]) {
    j.key("checks").begin_arr();
    for c in checks {
        j.begin_obj()
            .field_str("name", &c.name)
            .field_bool("ok", c.ok)
            .field_str("detail", &c.detail)
            .end_obj();
    }
    j.end_arr();
}

/// Run `f`, returning its result and wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Wall time of a fixed integer loop (a dependent multiply-xorshift
/// chain the compiler cannot shorten), median of five, in ns.
fn calibration_ns() -> f64 {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let (x, s) = timed(|| {
                let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
                for _ in 0..(1u32 << 22) {
                    x = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
                    x ^= x >> 29;
                }
                x
            });
            std::hint::black_box(x);
            s * 1e9
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[2]
}

struct Opts {
    seed: u64,
    trace: Option<String>,
    work: String,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        seed: 1,
        trace: None,
        work: ".".into(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--trace" => o.trace = Some(value()?.clone()),
            "--work" => o.work = value()?.clone(),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(o)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("usage: perfbench <plan|calibrate|layers> [options]");
        std::process::exit(2);
    };
    let opts = parse_opts(&args[1..]).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let mut j = JsonBuf::new();
    j.begin_obj();
    match cmd.as_str() {
        "plan" => plan::write(&mut j),
        "calibrate" => {
            j.field_f64("calibration_ns", calibration_ns());
        }
        "layers" => {
            let Some(trace) = &opts.trace else {
                eprintln!("perfbench layers: --trace <file written by the CLI> is required");
                std::process::exit(2);
            };
            let out = layers::run(opts.seed, trace, &opts.work);
            j.field_f64("wall_traced_s", out.wall_traced_s)
                .field_f64("setup_inproc_s", out.setup_inproc_s);
            out.metrics.write(&mut j);
            write_checks(&mut j, &out.checks);
        }
        other => {
            eprintln!("perfbench: unknown command {other:?}");
            std::process::exit(2);
        }
    }
    j.end_obj();
    println!("{}", j.finish());
}
