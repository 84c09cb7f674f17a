//! End-to-end tests of the observability surface of the `loadsteal`
//! binary: `--trace`, `--metrics-json`, `--quiet`, and the shape of the
//! emitted `loadsteal.run.v1` documents.
//!
//! The `--metrics-json` checks parse the output with the workspace's
//! JSON parser (`loadsteal_obs::json`) rather than substring matching,
//! so malformed escaping or nesting fails loudly.

use std::process::{Command, Output};

use loadsteal_obs::json::{self, JsonValue};

fn loadsteal(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_loadsteal"))
        .args(args)
        .output()
        .expect("spawn loadsteal binary")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("stdout is UTF-8")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("stderr is UTF-8")
}

// ---------------------------------------------------------------------
// JSON access over the workspace's own parser.

/// Parse one JSON document, failing the test loudly on invalid input.
fn parse_json(s: &str) -> JsonValue<'_> {
    json::parse(s).unwrap_or_else(|e| panic!("invalid JSON ({e}) in {s:?}"))
}

/// The member at `path` (one object key per step).
fn at<'a>(v: &'a JsonValue<'a>, path: &[&str]) -> &'a JsonValue<'a> {
    path.iter().fold(v, |v, key| {
        v.get(key)
            .unwrap_or_else(|| panic!("missing key {key:?} of {path:?} in {v:?}"))
    })
}

fn num(v: &JsonValue, path: &[&str]) -> f64 {
    let v = at(v, path);
    v.as_f64()
        .unwrap_or_else(|| panic!("expected number at {path:?}, got {v:?}"))
}

fn string<'a>(v: &'a JsonValue, path: &[&str]) -> &'a str {
    let v = at(v, path);
    v.as_str()
        .unwrap_or_else(|| panic!("expected string at {path:?}, got {v:?}"))
}

// ---------------------------------------------------------------------
// The tests proper.

const QUICK_SIM: &[&str] = &[
    "simulate",
    "--n",
    "16",
    "--lambda",
    "0.7",
    "--policy",
    "simple",
    "--runs",
    "2",
    "--horizon",
    "500",
    "--warmup",
    "50",
    "--seed",
    "7",
];

fn quick_sim_with<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    let mut v = QUICK_SIM.to_vec();
    v.extend_from_slice(extra);
    v
}

#[test]
fn metrics_json_stdout_is_one_parseable_document_with_both_layers() {
    let out = loadsteal(&quick_sim_with(&["--metrics-json", "-"]));
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    // Exactly one line of JSON on stdout; the narrative went to stderr.
    assert_eq!(text.trim_end().lines().count(), 1, "{text}");
    assert!(
        stderr(&out).contains("mean time in system"),
        "{}",
        stderr(&out)
    );

    let doc = parse_json(text.trim_end());
    assert_eq!(string(&doc, &["schema"]), "loadsteal.run.v1");

    let manifest = at(&doc, &["manifest"]);
    assert_eq!(num(manifest, &["seed"]), 7.0);
    assert!(string(manifest, &["command"]).starts_with("simulate"));
    assert_eq!(num(manifest, &["config", "n"]), 16.0);
    assert_eq!(num(manifest, &["config", "lambda"]), 0.7);

    // Simulator AND solver counters in the same report.
    let counters = at(&doc, &["metrics", "counters"]);
    assert!(num(counters, &["sim.arrivals"]) > 0.0);
    assert!(num(counters, &["sim.completions"]) > 0.0);
    assert!(num(counters, &["sim.steal_attempts"]) > 0.0);
    assert_eq!(num(counters, &["sim.replicates"]), 2.0);
    assert!(num(counters, &["solver.steps_accepted"]) > 0.0);
    assert_eq!(num(counters, &["solver.integrations"]), 1.0);

    let gauges = at(&doc, &["metrics", "gauges"]);
    assert!(num(gauges, &["sim.mean_sojourn"]) > 1.0);
    assert!(num(gauges, &["solver.mean_time_in_system"]) > 1.0);

    let hist = at(&doc, &["metrics", "histograms", "sim.run_events"]);
    assert_eq!(num(hist, &["count"]), 2.0);
}

#[test]
fn metrics_json_writes_to_a_file() {
    let path = std::env::temp_dir().join("loadsteal_cli_test_metrics.json");
    let path_s = path.to_str().unwrap();
    let out = loadsteal(&quick_sim_with(&["--metrics-json", path_s]));
    assert!(out.status.success(), "{}", stderr(&out));
    // File destination keeps the narrative on stdout.
    assert!(
        stdout(&out).contains("mean time in system"),
        "{}",
        stdout(&out)
    );
    let text = std::fs::read_to_string(&path).expect("metrics file written");
    let doc = parse_json(text.trim_end());
    assert_eq!(string(&doc, &["schema"]), "loadsteal.run.v1");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn trace_writes_valid_ndjson() {
    let path = std::env::temp_dir().join("loadsteal_cli_test_trace.ndjson");
    let path_s = path.to_str().unwrap();
    let out = loadsteal(&quick_sim_with(&["--trace", path_s]));
    assert!(out.status.success(), "{}", stderr(&out));
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let mut kinds = std::collections::BTreeSet::new();
    let mut lines = 0usize;
    for line in text.lines() {
        let ev = parse_json(line);
        kinds.insert(string(&ev, &["ev"]).to_owned());
        lines += 1;
    }
    assert!(lines > 100, "suspiciously short trace: {lines} lines");
    for expected in [
        "solver_step",
        "arrival",
        "completion",
        "steal_attempt",
        "replicate_done",
    ] {
        assert!(
            kinds.contains(expected),
            "no {expected:?} events in {kinds:?}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn quiet_silences_the_narrative() {
    let out = loadsteal(&quick_sim_with(&["--quiet"]));
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(stdout(&out), "", "expected no narrative");

    // --quiet composes with --metrics-json -: JSON only, nothing else.
    let out = loadsteal(&quick_sim_with(&["--quiet", "--metrics-json", "-"]));
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(stderr(&out), "", "narrative should be silenced");
    let text = stdout(&out);
    let doc = parse_json(text.trim_end());
    assert_eq!(string(&doc, &["schema"]), "loadsteal.run.v1");
}

#[test]
fn trace_to_stdout_is_pure_ndjson() {
    let out = loadsteal(&quick_sim_with(&["--quiet", "--trace", "-"]));
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(stderr(&out), "", "narrative should be silenced");
    let text = stdout(&out);
    let mut lines = 0usize;
    for line in text.lines() {
        let ev = parse_json(line);
        string(&ev, &["ev"]);
        lines += 1;
    }
    assert!(lines > 100, "suspiciously short trace: {lines} lines");

    // Without --quiet the narrative moves to stderr, keeping stdout
    // machine-readable.
    let out = loadsteal(&quick_sim_with(&["--trace", "-"]));
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("mean time in system"),
        "{}",
        stderr(&out)
    );
    parse_json(stdout(&out).lines().next().expect("ndjson on stdout"));
}

#[test]
fn trace_and_metrics_cannot_both_claim_stdout() {
    let out = loadsteal(&quick_sim_with(&["--trace", "-", "--metrics-json", "-"]));
    assert!(!out.status.success());
    assert!(stderr(&out).contains("stdout"), "{}", stderr(&out));
}

#[test]
fn metrics_json_carries_sojourn_quantile_sketch() {
    let out = loadsteal(&quick_sim_with(&["--quiet", "--metrics-json", "-"]));
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let doc = parse_json(text.trim_end());
    let sketch = at(&doc, &["metrics", "sketches", "sim.sojourn_time"]);
    assert!(num(sketch, &["count"]) > 100.0);
    let (p50, p90, p99) = (
        num(sketch, &["p50"]),
        num(sketch, &["p90"]),
        num(sketch, &["p99"]),
    );
    assert!(p50 > 0.0 && p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
    // The sketch's mean agrees with the directly measured mean sojourn.
    let mean = num(&doc, &["metrics", "gauges", "sim.mean_sojourn"]);
    assert!(
        (num(sketch, &["mean"]) - mean).abs() / mean < 0.05,
        "sketch mean {} vs gauge {}",
        num(sketch, &["mean"]),
        mean
    );
    // Histogram quantiles ride along on every non-empty histogram.
    let hist = at(&doc, &["metrics", "histograms", "sim.run_events"]);
    assert!(num(hist, &["p50"]) > 0.0);
}

#[test]
fn report_renders_sim_vs_mean_field_table() {
    let path = std::env::temp_dir().join("loadsteal_cli_test_report.ndjson");
    let path_s = path.to_str().unwrap();
    // One run so the trace replays into a consistent timeline.
    let out = loadsteal(&[
        "simulate",
        "--n",
        "16",
        "--lambda",
        "0.7",
        "--runs",
        "1",
        "--horizon",
        "2000",
        "--warmup",
        "200",
        "--seed",
        "7",
        "--trace",
        path_s,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    let out = loadsteal(&["report", path_s, "--warmup", "200"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("sim vs mean-field"), "{text}");
    assert!(text.contains("tail ratio"), "{text}");
    assert!(text.contains("mean sojourn time"), "{text}");
    assert!(text.contains("rel. err"), "{text}");
    assert!(!text.contains("WARNING"), "consistent trace: {text}");

    // A corrupted trace fails strict mode but recovers with --lossy.
    let text = std::fs::read_to_string(&path).unwrap();
    let mangled: String = text
        .lines()
        .enumerate()
        .map(|(i, l)| {
            if i == 3 {
                "not json\n".to_string()
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    std::fs::write(&path, mangled).unwrap();
    let out = loadsteal(&["report", path_s, "--warmup", "200"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("line 4"), "{}", stderr(&out));
    let out = loadsteal(&["report", path_s, "--warmup", "200", "--lossy"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("skipped 1"), "{}", stderr(&out));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn jobs_prints_the_same_report_on_every_invocation() {
    let path = std::env::temp_dir().join("loadsteal_cli_test_jobs.ndjson");
    let path_s = path.to_str().unwrap();
    // One run, so job ids are unique and many jobs tie at the longest
    // chain: the reported example id must not depend on hash order.
    let out = loadsteal(&quick_sim_with(&[
        "--runs",
        "1",
        "--trace-jobs",
        "--trace",
        path_s,
    ]));
    assert!(out.status.success(), "{}", stderr(&out));

    let first = loadsteal(&["jobs", path_s, "--warmup", "50"]);
    assert!(first.status.success(), "{}", stderr(&first));
    assert!(
        stdout(&first).contains("longest chain"),
        "{}",
        stdout(&first)
    );
    let second = loadsteal(&["jobs", path_s, "--warmup", "50"]);
    assert_eq!(stdout(&first), stdout(&second));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn serve_exposes_prometheus_text_on_a_live_listener() {
    use std::io::{BufRead, BufReader, Read, Write};

    let mut child = Command::new(env!("CARGO_BIN_EXE_loadsteal"))
        .args([
            "serve",
            "--prom-addr",
            "127.0.0.1:0",
            "--n",
            "8",
            "--lambda",
            "0.6",
            "--runs",
            "1",
            "--horizon",
            "2000",
            "--warmup",
            "200",
            "--scrapes",
            "1",
            "--quiet",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn loadsteal serve");

    // The first stdout line announces the bound address.
    let mut child_out = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    child_out.read_line(&mut line).expect("address line");
    let addr = line
        .split("http://")
        .nth(1)
        .and_then(|s| s.split("/metrics").next())
        .unwrap_or_else(|| panic!("no address in {line:?}"))
        .to_string();

    let mut stream = std::net::TcpStream::connect(&addr).expect("connect to scrape endpoint");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");

    assert!(
        response.starts_with("HTTP/1.1 200 OK\r\n"),
        "{}",
        &response[..response.len().min(200)]
    );
    assert!(response.contains("Content-Type: text/plain; version=0.0.4"));
    let body = response
        .split("\r\n\r\n")
        .nth(1)
        .expect("response carries a body");
    // Scrape-style validation: every line is a comment or `name value`.
    let mut samples = 0usize;
    for l in body.lines() {
        if l.is_empty() || l.starts_with('#') {
            continue;
        }
        let (name, value) = l
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("bad line {l:?}"));
        assert!(
            name.chars().next().unwrap().is_ascii_alphabetic() || name.starts_with('_'),
            "bad metric name in {l:?}"
        );
        assert!(
            value == "+Inf" || value == "-Inf" || value == "NaN" || value.parse::<f64>().is_ok(),
            "bad value in {l:?}"
        );
        samples += 1;
    }
    assert!(samples > 5, "thin exposition:\n{body}");
    assert!(
        body.contains("loadsteal_sim_arrivals_total"),
        "live sim counters missing:\n{body}"
    );

    let status = child.wait().expect("serve exits after --scrapes 1");
    assert!(status.success());
}

#[test]
fn unknown_flags_are_rejected_and_obs_flags_are_known() {
    let out = loadsteal(&quick_sim_with(&["--bogus", "1"]));
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown flag --bogus"), "{err}");
    // The observability flags are listed as known.
    assert!(err.contains("metrics-json"), "{err}");
}

#[test]
fn solve_also_emits_a_run_document() {
    let out = loadsteal(&[
        "solve",
        "--model",
        "simple",
        "--lambda",
        "0.9",
        "--metrics-json",
        "-",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let doc = parse_json(text.trim_end());
    let counters = at(&doc, &["metrics", "counters"]);
    assert!(num(counters, &["solver.steps_accepted"]) > 0.0);
    let gauges = at(&doc, &["metrics", "gauges"]);
    assert!(num(gauges, &["solver.residual"]) < 1e-6);
}
