//! Property tests for the hand-rolled JSON layer: everything the
//! writer emits must parse back, bit-for-bit where the format allows.

use std::borrow::Cow;
use std::fmt::Write as _;

use loadsteal_obs::json::{parse, write_escaped, JsonBuf, JsonValue};
use loadsteal_obs::{Event, JobEventKind, SimEventKind, TAIL_SAMPLE_DEPTH};
use proptest::prelude::*;

/// Map arbitrary bits to a finite f64 (the writer never receives
/// non-finite values from instrumented code paths under test here; the
/// non-finite rendering is covered separately below).
fn finite(bits: u64) -> f64 {
    let v = f64::from_bits(bits);
    if v.is_finite() {
        v
    } else {
        // Fall back to a value derived from the same entropy.
        (bits >> 12) as f64 / 1e3
    }
}

/// Build a string from entropy over an alphabet that exercises every
/// escaping path: quotes, backslashes, control characters, multi-byte
/// UTF-8, and astral-plane characters (surrogate pairs in `\u` form).
fn tricky_string(seed: u64, len: usize) -> String {
    const ALPHABET: &[char] = &[
        'a',
        'Z',
        '0',
        ' ',
        '"',
        '\\',
        '/',
        '\n',
        '\r',
        '\t',
        '\u{0}',
        '\u{1f}',
        'é',
        'λ',
        '中',
        '😀',
        '\u{10FFFF}',
    ];
    let mut s = seed;
    (0..len)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ALPHABET[(s >> 33) as usize % ALPHABET.len()]
        })
        .collect()
}

fn sim_kind(tag: u8) -> SimEventKind {
    match tag % 5 {
        0 => SimEventKind::Arrival,
        1 => SimEventKind::Completion,
        2 => SimEventKind::StealAttempt,
        3 => SimEventKind::StealSuccess,
        _ => SimEventKind::Migration,
    }
}

/// `s` as a JSON string literal with every character spelled as a
/// `\uXXXX` escape: UTF-16 code units, so astral characters become
/// surrogate pairs.
fn unicode_escaped(s: &str) -> String {
    let mut out = String::from("\"");
    for unit in s.encode_utf16() {
        write!(out, "\\u{unit:04X}").unwrap();
    }
    out.push('"');
    out
}

/// One event of any kind, fields drawn from the entropy `b` and `c`.
fn any_event(which: u8, b: u64, c: u64) -> Event {
    let t = finite(b);
    match which % 8 {
        0 => Event::SolverStep {
            accepted: c & 1 == 1,
            t,
            h: finite(c),
            err_norm: finite(b ^ c),
        },
        1 => Event::SolverSteady {
            t,
            residual: finite(c),
        },
        2 => Event::SolverDone {
            accepted: c,
            rejected: c >> 7,
            min_h: t,
            max_h: finite(c),
            max_reject_streak: c % 97,
            converged: c & 2 == 2,
            residual: f64::NAN,
        },
        3 => Event::Sim {
            kind: sim_kind(c as u8),
            t,
            proc: c as u32,
            src: (c & 4 == 4).then_some((c >> 32) as u32),
            count: (c >> 40) as u32 % 4,
        },
        4 => Event::Job {
            kind: [
                JobEventKind::Arrival,
                JobEventKind::Migrate,
                JobEventKind::ServiceStart,
                JobEventKind::Completion,
            ][c as usize % 4],
            t,
            job: c,
            proc: (c >> 8) as u32,
            src: (c & 8 == 8).then_some((c >> 16) as u32),
            delay: if c & 16 == 16 { finite(c) } else { 0.0 },
        },
        5 => Event::TailSample {
            t,
            tails: [t, finite(c), 0.5, 0.25, f64::INFINITY, 0.0, 1e-300, 0.0],
            depth: (c % (TAIL_SAMPLE_DEPTH as u64 + 1)) as u32,
        },
        6 => Event::Heartbeat {
            t,
            events: c,
            tasks_in_system: c >> 3,
        },
        _ => Event::ReplicateDone {
            seed: c,
            wall_ms: t,
            events: c >> 1,
            events_per_sec: finite(c),
        },
    }
}

fn get_f64(doc: &JsonValue, key: &str) -> f64 {
    doc.get(key)
        .unwrap_or_else(|| panic!("missing key {key}"))
        .as_f64()
        .unwrap_or_else(|| panic!("{key} is not a number"))
}

fn get_u64(doc: &JsonValue, key: &str) -> u64 {
    doc.get(key)
        .unwrap_or_else(|| panic!("missing key {key}"))
        .as_u64()
        .unwrap_or_else(|| panic!("{key} is not a u64"))
}

proptest! {
    #[test]
    fn finite_f64_round_trips_exactly(bits in any::<u64>()) {
        let v = finite(bits);
        let mut j = JsonBuf::new();
        j.begin_obj().field_f64("x", v);
        j.end_obj();
        let text = j.finish();
        let doc = parse(&text).expect("writer output must parse");
        let got = doc.get("x").unwrap().as_f64().unwrap();
        // Shortest-roundtrip float formatting is exact, including -0.0.
        prop_assert_eq!(got.to_bits(), v.to_bits());
    }

    #[test]
    fn u64_round_trips_exactly(v in any::<u64>()) {
        let mut j = JsonBuf::new();
        j.begin_obj().field_u64("n", v);
        j.end_obj();
        let text = j.finish();
        let doc = parse(&text).expect("writer output must parse");
        prop_assert_eq!(doc.get("n").unwrap().as_u64(), Some(v));
    }

    #[test]
    fn strings_round_trip_through_escaping(seed in any::<u64>(), len in 0usize..40) {
        let s = tricky_string(seed, len);
        let mut j = JsonBuf::new();
        j.begin_obj().field_str("s", &s);
        j.end_obj();
        let text = j.finish();
        let doc = parse(&text).expect("escaped string must parse");
        prop_assert_eq!(doc.get("s").unwrap().as_str(), Some(s.as_str()));
    }

    #[test]
    fn non_finite_floats_render_as_null_and_stay_parseable(tag in 0u8..3) {
        let v = match tag {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        };
        let mut j = JsonBuf::new();
        j.begin_obj().field_f64("x", v);
        j.end_obj();
        let text = j.finish();
        let doc = parse(&text).expect("null rendering must parse");
        prop_assert!(matches!(doc.get("x"), Some(JsonValue::Null)));
    }

    #[test]
    fn sim_event_lines_round_trip(
        tag in any::<u8>(),
        t in 0.0f64..1e9,
        procs in (0u32..4096, 0u32..4096),
        count in 1u32..100,
        with_src in any::<bool>(),
    ) {
        let kind = sim_kind(tag);
        let src = (kind == SimEventKind::Migration && with_src).then_some(procs.1);
        let ev = Event::Sim { kind, t, proc: procs.0, src, count };
        let line = ev.to_json_line();
        let doc = parse(&line).expect("event line must parse");
        prop_assert_eq!(doc.get("ev").unwrap().as_str(), Some(kind.name()));
        prop_assert_eq!(get_f64(&doc, "t").to_bits(), t.to_bits());
        prop_assert_eq!(get_u64(&doc, "proc"), procs.0 as u64);
        match src {
            Some(s) => prop_assert_eq!(get_u64(&doc, "src"), s as u64),
            None => prop_assert!(doc.get("src").is_none()),
        }
        if count != 1 {
            prop_assert_eq!(get_u64(&doc, "count"), count as u64);
        } else {
            prop_assert!(doc.get("count").is_none());
        }
    }

    #[test]
    fn solver_and_lifecycle_event_lines_round_trip(
        bits in (any::<u64>(), any::<u64>(), any::<u64>()),
        counts in (any::<u32>(), any::<u32>(), any::<u64>()),
        flags in (any::<bool>(), any::<bool>()),
        which in 0u8..4,
    ) {
        let (b0, b1, b2) = bits;
        let (c0, c1, c2) = counts;
        let ev = match which {
            0 => Event::SolverStep {
                accepted: flags.0,
                t: finite(b0),
                h: finite(b1),
                err_norm: finite(b2),
            },
            1 => Event::SolverDone {
                accepted: c0 as u64,
                rejected: c1 as u64,
                min_h: finite(b0),
                max_h: finite(b1),
                max_reject_streak: c2 % 1000,
                converged: flags.1,
                residual: finite(b2),
            },
            2 => Event::Heartbeat {
                t: finite(b0),
                events: c2,
                tasks_in_system: c0 as u64,
            },
            _ => Event::ReplicateDone {
                seed: c2,
                wall_ms: finite(b0),
                events: c1 as u64,
                events_per_sec: finite(b1),
            },
        };
        let line = ev.to_json_line();
        let doc = parse(&line).expect("event line must parse");
        prop_assert_eq!(doc.get("ev").unwrap().as_str(), Some(ev.name()));
        match ev {
            Event::SolverStep { accepted, t, h, err_norm } => {
                prop_assert_eq!(doc.get("accepted").unwrap().as_bool(), Some(accepted));
                prop_assert_eq!(get_f64(&doc, "t").to_bits(), t.to_bits());
                prop_assert_eq!(get_f64(&doc, "h").to_bits(), h.to_bits());
                prop_assert_eq!(get_f64(&doc, "err_norm").to_bits(), err_norm.to_bits());
            }
            Event::SolverDone { accepted, rejected, max_reject_streak, converged, .. } => {
                prop_assert_eq!(get_u64(&doc, "accepted"), accepted);
                prop_assert_eq!(get_u64(&doc, "rejected"), rejected);
                prop_assert_eq!(get_u64(&doc, "max_reject_streak"), max_reject_streak);
                prop_assert_eq!(doc.get("converged").unwrap().as_bool(), Some(converged));
            }
            Event::Heartbeat { t, events, tasks_in_system } => {
                prop_assert_eq!(get_f64(&doc, "t").to_bits(), t.to_bits());
                prop_assert_eq!(get_u64(&doc, "events"), events);
                prop_assert_eq!(get_u64(&doc, "tasks_in_system"), tasks_in_system);
            }
            Event::ReplicateDone { seed, wall_ms, events, .. } => {
                prop_assert_eq!(get_u64(&doc, "seed"), seed);
                prop_assert_eq!(get_f64(&doc, "wall_ms").to_bits(), wall_ms.to_bits());
                prop_assert_eq!(get_u64(&doc, "events"), events);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn nested_documents_round_trip(
        n in 0u64..1000,
        g in -1e6f64..1e6,
        seed in any::<u64>(),
    ) {
        let s = tricky_string(seed, 8);
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.key("meta").begin_obj().field_str("name", &s).field_u64("n", n);
        j.end_obj();
        j.key("values").begin_arr();
        j.f64_val(g).u64_val(n).str_val(&s);
        j.end_arr();
        j.end_obj();
        let text = j.finish();
        let doc = parse(&text).expect("nested doc must parse");
        let meta = doc.get("meta").unwrap();
        prop_assert_eq!(meta.get("name").unwrap().as_str(), Some(s.as_str()));
        prop_assert_eq!(meta.get("n").unwrap().as_u64(), Some(n));
        match doc.get("values") {
            Some(JsonValue::Arr(xs)) => {
                prop_assert_eq!(xs.len(), 3);
                prop_assert_eq!(xs[0].as_f64().unwrap().to_bits(), g.to_bits());
                prop_assert_eq!(xs[1].as_u64(), Some(n));
                prop_assert_eq!(xs[2].as_str(), Some(s.as_str()));
            }
            other => panic!("values is not an array: {other:?}"),
        }
    }

    #[test]
    fn escaped_strings_decode_borrowed_or_owned(seed in any::<u64>(), len in 0usize..40) {
        let s = tricky_string(seed, len);
        // The writer's own escaping: a string with nothing to escape
        // stays a slice of the line; anything else is decoded.
        let mut text = String::new();
        write_escaped(&mut text, &s);
        let doc = parse(&text).expect("escaped string must parse");
        prop_assert_eq!(doc.as_str(), Some(s.as_str()));
        let borrowed = matches!(doc, JsonValue::Str(Cow::Borrowed(_)));
        prop_assert_eq!(borrowed, !text.contains('\\'), "{}", text);
        // Every character as a `\u` escape, surrogate pairs included.
        let text = unicode_escaped(&s);
        let doc = parse(&text).expect("unicode escapes must parse");
        prop_assert_eq!(doc.as_str(), Some(s.as_str()), "{}", text);
    }

    #[test]
    fn duplicate_keys_resolve_to_the_last(values in proptest::collection::vec(any::<u64>(), 1..6)) {
        let mut j = JsonBuf::new();
        j.begin_obj();
        for (i, &v) in values.iter().enumerate() {
            j.field_u64("k", v).field_u64(&format!("other{i}"), i as u64);
        }
        j.end_obj();
        let text = j.finish();
        let doc = parse(&text).expect("duplicate keys are valid JSON");
        prop_assert_eq!(doc.get("k").and_then(JsonValue::as_u64), values.last().copied());
    }

    #[test]
    fn error_after_an_escaped_key_reports_the_token_offset(
        seed in any::<u64>(),
        len in 0usize..12,
        bad in 0u8..3,
    ) {
        let mut text = String::from("{\"ev\":\"arrival\",");
        write_escaped(&mut text, &tricky_string(seed, len));
        text.push(':');
        // Where each malformed value is caught: a bad literal at its
        // start, `01` after its leading zero, an overflow at its end.
        let (token, at) = [("nope", 0), ("01", 1), ("1e999", 5)][bad as usize];
        let offset = text.len() + at;
        text.push_str(token);
        text.push('}');
        let err = parse(&text).expect_err("the value is malformed");
        prop_assert_eq!(err.offset, offset, "{} -> {}", text, err);
    }

    #[test]
    fn write_json_appends_after_any_prefix(
        prefix_seed in any::<u64>(),
        prefix_len in 1usize..24,
        which in any::<u8>(),
        b in any::<u64>(),
        c in any::<u64>(),
    ) {
        let ev = any_event(which, b, c);
        let prefix = tricky_string(prefix_seed, prefix_len);
        let mut out = prefix.clone();
        ev.write_json(&mut out);
        prop_assert_eq!(out, prefix + &ev.to_json_line());
    }
}
