//! Property tests for the trace reader's error paths: truncation,
//! invalid UTF-8, unknown event kinds, and the strict/lossy contract.
//!
//! The invariants under test:
//!
//! * Strict mode fails on exactly the first malformed line, with a
//!   1-based line number pointing at it.
//! * Lossy mode never fails; `events + skipped == lines` and every
//!   line before the corruption parses to the same events strict mode
//!   would have produced.
//! * [`read_bytes`] agrees with [`read_str`] on valid UTF-8 input and
//!   degrades per-line (not per-file) on invalid UTF-8.
//! * Streaming any of these documents through [`read_into`] from a
//!   `BufRead` — with a buffer small enough that lines straddle refills
//!   — gives exactly the in-memory reader's result: events, diagnostics
//!   (line, column, message), line count, header, or the strict error.

use std::io::BufReader;

use loadsteal_obs::{CollectingRecorder, Event, SimEventKind, TraceHeader};
use loadsteal_trace::{read_bytes, read_into, read_str, ParsedTrace, ReadMode, TraceError};
use proptest::prelude::*;

/// `bytes` streamed line by line through [`read_into`], with the events
/// collected back into the in-memory shape.
fn streamed(bytes: &[u8], mode: ReadMode) -> Result<ParsedTrace, TraceError> {
    let mut events = CollectingRecorder::new();
    let trace = read_into(BufReader::with_capacity(7, bytes), mode, &mut events)?;
    assert!(
        trace.events.is_empty(),
        "read_into hands events to the sink"
    );
    Ok(ParsedTrace {
        events: events.into_events(),
        ..trace
    })
}

/// The streaming reader and the in-memory reader agree on `bytes` in
/// both modes.
fn assert_streaming_matches(bytes: &[u8]) {
    for mode in [ReadMode::Strict, ReadMode::Lossy] {
        match (streamed(bytes, mode), read_bytes(bytes, mode)) {
            (Ok(s), Ok(m)) => {
                assert_eq!(s.events, m.events, "{mode:?}");
                assert_eq!(s.skipped, m.skipped, "{mode:?}");
                assert_eq!(s.lines, m.lines, "{mode:?}");
                assert_eq!(s.header, m.header, "{mode:?}");
                assert_eq!(s.spans, m.spans, "{mode:?}");
                assert_eq!(s.panics, m.panics, "{mode:?}");
            }
            (Err(s), Err(m)) => assert_eq!(s, m, "{mode:?}"),
            (s, m) => panic!("{mode:?}: streamed {s:?} vs in-memory {m:?}"),
        }
    }
}

/// A synthetic but well-formed event stream of `len` lines, seeded so
/// failures replay.
fn valid_doc(seed: u64, len: usize) -> String {
    let mut s = seed;
    let mut next = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        s >> 33
    };
    (0..len)
        .map(|i| {
            let kind = match next() % 5 {
                0 => SimEventKind::Arrival,
                1 => SimEventKind::Completion,
                2 => SimEventKind::StealAttempt,
                3 => SimEventKind::StealSuccess,
                _ => SimEventKind::Migration,
            };
            let src = matches!(kind, SimEventKind::Migration).then(|| (next() % 64) as u32);
            Event::Sim {
                kind,
                t: i as f64 * 0.25,
                proc: (next() % 64) as u32,
                src,
                count: 1 + (next() % 3) as u32,
            }
            .to_json_line()
                + "\n"
        })
        .collect()
}

proptest! {
    /// Truncating a valid document mid-line leaves a prefix strict mode
    /// rejects at the last line, while lossy mode keeps every complete
    /// line.
    #[test]
    fn truncated_tail_is_isolated(seed in any::<u64>(), len in 1usize..20, cut in 1usize..40) {
        let doc = valid_doc(seed, len);
        let full = read_str(&doc, ReadMode::Strict).unwrap();
        // Cut strictly inside the final line (never at a line boundary,
        // never the whole line, and past the opening brace so the
        // remnant cannot be blank or accidentally valid).
        let last_start = doc[..doc.len() - 1].rfind('\n').map_or(0, |p| p + 1);
        let last_len = doc.len() - 1 - last_start;
        let cut_at = last_start + 1 + cut % (last_len - 1);
        let truncated = &doc[..cut_at];

        let err = read_str(truncated, ReadMode::Strict).unwrap_err();
        prop_assert_eq!(err.line, len, "strict must point at the torn line");

        let lossy = read_str(truncated, ReadMode::Lossy).unwrap();
        assert_streaming_matches(truncated.as_bytes());
        prop_assert_eq!(lossy.events.len(), len - 1);
        prop_assert_eq!(lossy.skipped.len(), 1);
        prop_assert_eq!(lossy.lines, lossy.events.len() + lossy.skipped.len());
        prop_assert_eq!(&lossy.events[..], &full.events[..len - 1]);
    }

    /// An unknown event kind anywhere in the stream: strict mode names
    /// its line, lossy mode drops exactly that line.
    #[test]
    fn unknown_event_kind_is_pinpointed(seed in any::<u64>(), len in 1usize..20, at in any::<usize>()) {
        let mut lines: Vec<String> = valid_doc(seed, len).lines().map(str::to_owned).collect();
        let at = at % (len + 1);
        lines.insert(at, r#"{"ev":"quantum_steal","t":1.0,"proc":0}"#.to_owned());
        let doc = lines.join("\n");

        let err = read_str(&doc, ReadMode::Strict).unwrap_err();
        prop_assert_eq!(err.line, at + 1);
        prop_assert!(err.message.contains("unknown event kind"), "{}", err);
        prop_assert!(err.message.contains("quantum_steal"), "{}", err);

        let lossy = read_str(&doc, ReadMode::Lossy).unwrap();
        prop_assert_eq!(lossy.events.len(), len);
        prop_assert_eq!(lossy.skipped.len(), 1);
        prop_assert_eq!(lossy.skipped[0].line, at + 1);
        assert_streaming_matches(doc.as_bytes());
    }

    /// On valid UTF-8, `read_bytes` and `read_str` are the same parser.
    #[test]
    fn read_bytes_matches_read_str_on_utf8(seed in any::<u64>(), len in 0usize..20) {
        let doc = valid_doc(seed, len);
        for mode in [ReadMode::Strict, ReadMode::Lossy] {
            let via_str = read_str(&doc, mode).unwrap();
            let via_bytes = read_bytes(doc.as_bytes(), mode).unwrap();
            prop_assert_eq!(&via_str.events[..], &via_bytes.events[..]);
            prop_assert_eq!(via_str.lines, via_bytes.lines);
            prop_assert_eq!(via_str.skipped.len(), via_bytes.skipped.len());
        }
        assert_streaming_matches(doc.as_bytes());
    }

    /// A line corrupted into invalid UTF-8 fails strict `read_bytes`
    /// with the corrupt line and byte column; lossy keeps every other
    /// line.
    #[test]
    fn invalid_utf8_degrades_per_line(seed in any::<u64>(), len in 1usize..20, at in any::<usize>(), bad in any::<u8>()) {
        let doc = valid_doc(seed, len);
        let at = at % len;
        let mut bytes = doc.into_bytes();
        // Overwrite the victim line's second byte (inside the JSON, not
        // the newline) with a lone continuation byte.
        let line_starts: Vec<usize> = std::iter::once(0)
            .chain(bytes.iter().enumerate().filter(|&(_, &b)| b == b'\n').map(|(p, _)| p + 1))
            .collect();
        let victim = line_starts[at] + 1;
        bytes[victim] = 0x80 | (bad & 0x3f); // 0x80..=0xBF: never a valid start byte

        let err = read_bytes(&bytes, ReadMode::Strict).unwrap_err();
        prop_assert_eq!(err.line, at + 1);
        prop_assert_eq!(err.column, 2, "first invalid byte is at byte 2 of the line");
        prop_assert!(err.message.contains("UTF-8"), "{}", err);

        let lossy = read_bytes(&bytes, ReadMode::Lossy).unwrap();
        prop_assert_eq!(lossy.events.len(), len - 1);
        prop_assert_eq!(lossy.skipped.len(), 1);
        prop_assert_eq!(lossy.lines, len);
        assert_streaming_matches(&bytes);
    }
}

/// CRLF traces parse identically to LF traces through `read_bytes`.
#[test]
fn crlf_lines_are_accepted() {
    let doc = valid_doc(7, 5);
    let crlf = doc.replace('\n', "\r\n");
    let a = read_bytes(doc.as_bytes(), ReadMode::Strict).unwrap();
    let b = read_bytes(crlf.as_bytes(), ReadMode::Strict).unwrap();
    assert_eq!(a.events, b.events);
    assert_streaming_matches(crlf.as_bytes());
}

/// Strict mode surfaces the UTF-8 column exactly where decoding stopped.
#[test]
fn utf8_column_is_valid_up_to_plus_one() {
    let mut bytes = br#"{"ev":"arrival","t":1.0,"proc":0}"#.to_vec();
    bytes[20] = 0xFF;
    let err = read_bytes(&bytes, ReadMode::Strict).unwrap_err();
    assert_eq!((err.line, err.column), (1, 21));
    assert_streaming_matches(&bytes);
}

proptest! {
    /// Blank lines (including whitespace-only and CRLF-blank ones) are
    /// skipped but still advance the line numbers of later diagnostics,
    /// streamed or not.
    #[test]
    fn blank_lines_keep_line_numbers(seed in any::<u64>(), len in 1usize..20, blanks in 1usize..5) {
        let mut lines: Vec<String> = valid_doc(seed, len).lines().map(str::to_owned).collect();
        for k in 0..blanks {
            let at = (seed as usize).wrapping_add(k * 7) % (lines.len() + 1);
            lines.insert(at, ["", "  ", "\r"][k % 3].to_owned());
        }
        lines.push("garbage".to_owned());
        let doc = lines.join("\n");
        let lossy = read_str(&doc, ReadMode::Lossy).unwrap();
        prop_assert_eq!(lossy.lines, len + 1);
        prop_assert_eq!(lossy.skipped[0].line, lines.len());
        assert_streaming_matches(doc.as_bytes());
    }
}

/// In a concatenated trace the first header wins, streamed or not.
#[test]
fn first_header_wins_when_streamed() {
    let header = |model: &str| {
        TraceHeader {
            model: Some(model.into()),
            ..TraceHeader::default()
        }
        .to_json_line()
    };
    let doc = format!(
        "{}\n{}{}\n{}",
        header("lambda=0.8,policy=none"),
        valid_doc(3, 4),
        header("lambda=0.9,policy=steal,T=2,d=1,k=1"),
        valid_doc(4, 4)
    );
    let parsed = read_str(&doc, ReadMode::Strict).unwrap();
    assert_eq!(
        parsed.header.and_then(|h| h.model).as_deref(),
        Some("lambda=0.8,policy=none")
    );
    assert_streaming_matches(doc.as_bytes());
}
