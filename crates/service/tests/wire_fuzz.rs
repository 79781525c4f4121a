//! Seeded fuzzing of the request-line path: the reactor's
//! [`LineDecoder`] framing, then `decode_request` and `decode_response`
//! on mutated lines.
//!
//! ChaCha8 streams with fixed seeds and a fixed case budget make every
//! run identical; a failure names its seed and case.  A bad input must
//! come back as a typed error, never a panic or an abort.

use micrograd_core::{FrameworkConfig, MetricKind, StressGoal, UseCaseConfig};
use micrograd_obs::{JobTimeline, TimelineMark};
use micrograd_service::{
    decode_request, decode_response, encode_line, JobState, JobSummary, LineDecoder, Request,
    RequestBody, Response, ResponseBody,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const SEEDS: [u64; 3] = [0x00C0_FFEE, 0x5EED_2022, 0xDEAD_BEEF];

/// Byte streams per seed pushed through a [`LineDecoder`].
const DECODER_CASES: usize = 1_500;

/// Mutated lines per seed fed to each decoder.
const MUTATION_CASES: usize = 700;

/// Deepest run of `[`/`{` a mutation inserts.
const MAX_NESTING: usize = 100_000;

/// Pieces a decoder stream is built from: ASCII, multi-byte UTF-8, bytes
/// that are never valid UTF-8 and a truncated sequence.
const PIECES: [&[u8]; 9] = [
    b"a",
    b"{\"op\":1}",
    b" ",
    "é".as_bytes(),
    "☃".as_bytes(),
    "😀".as_bytes(),
    &[0xFF],
    &[0x80, 0x80],
    &[0xE2, 0x98],
];

/// The lines a reference split at `\n` yields for `bytes`: every
/// terminated segment, decoded lossily as the decoder does.
fn reference_lines(bytes: &[u8]) -> Vec<String> {
    let mut segments: Vec<&[u8]> = bytes.split(|b| *b == b'\n').collect();
    segments.pop();
    segments
        .into_iter()
        .map(|s| String::from_utf8_lossy(s).into_owned())
        .collect()
}

#[test]
fn line_decoder_yields_exactly_the_reference_split_under_any_chunking() {
    for seed in SEEDS {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for case in 0..DECODER_CASES {
            // A stream of lines, some empty, some past the bound; the
            // last one may stay unterminated.
            let mut stream = Vec::new();
            for _ in 0..rng.gen_range(0..12) {
                for _ in 0..rng.gen_range(0..24) {
                    stream.extend_from_slice(PIECES[rng.gen_range(0..PIECES.len())]);
                }
                stream.push(b'\n');
            }
            for _ in 0..rng.gen_range(0..8) {
                stream.extend_from_slice(PIECES[rng.gen_range(0..PIECES.len())]);
            }
            let max_line = rng.gen_range(8..160);
            let mut decoder = LineDecoder::new(max_line);
            let mut lines = Vec::new();
            let mut pushed = 0;
            // Bytes of the line in progress, as the reactor drives the
            // decoder: every complete line is taken after each push.
            let mut partial = 0;
            let mut overflowed = false;
            while pushed < stream.len() {
                let end = (pushed + rng.gen_range(1..=17)).min(stream.len());
                let chunk = &stream[pushed..end];
                let newline = chunk.iter().rposition(|b| *b == b'\n');
                let overflows = newline.is_none() && partial + chunk.len() > max_line;
                assert_eq!(
                    decoder.push(chunk),
                    !overflows,
                    "seed {seed:#x} case {case}: push of bytes {pushed}..{end}, bound {max_line}"
                );
                while let Some(line) = decoder.next_line() {
                    lines.push(line);
                }
                if overflows {
                    overflowed = true;
                    break;
                }
                partial = newline.map_or(partial + chunk.len(), |p| chunk.len() - p - 1);
                pushed = end;
            }
            if overflowed {
                // The overflow latches: nothing more is buffered or framed.
                assert!(!decoder.push(b"\n"), "seed {seed:#x} case {case}");
                assert_eq!(decoder.next_line(), None, "seed {seed:#x} case {case}");
            }
            assert_eq!(
                lines,
                reference_lines(&stream[..pushed]),
                "seed {seed:#x} case {case}"
            );
        }
    }
}

/// Valid request lines to mutate.
fn request_lines() -> Vec<String> {
    let stress = FrameworkConfig {
        use_case: UseCaseConfig::Stress {
            metric: MetricKind::Ipc,
            goal: StressGoal::Minimize,
        },
        ..FrameworkConfig::default()
    };
    let clone = FrameworkConfig {
        use_case: UseCaseConfig::CloneBenchmark {
            benchmark: "mcf".into(),
            accuracy_target: 0.95,
        },
        ..FrameworkConfig::default()
    };
    [
        RequestBody::Submit {
            config: stress,
            priority: -3,
            deadline_ms: Some(2_500),
        },
        RequestBody::Submit {
            config: clone,
            priority: 0,
            deadline_ms: None,
        },
        RequestBody::Watch {
            job: 7,
            timeout_ms: Some(0),
        },
        RequestBody::Watch {
            job: 7,
            timeout_ms: None,
        },
        RequestBody::Fetch { job: 1 },
        RequestBody::List,
        RequestBody::Metrics,
        RequestBody::Trace { job: 2 },
        RequestBody::Shutdown,
    ]
    .into_iter()
    .map(|body| encode_line(&Request::new(body)).expect("encodes"))
    .collect()
}

/// Valid response lines to mutate.
fn response_lines() -> Vec<String> {
    [
        ResponseBody::Submitted {
            job: 1,
            deduped: false,
            cached: true,
        },
        ResponseBody::Status {
            job: 1,
            state: JobState::Failed {
                error: "worker \"panicked\"\n".into(),
            },
        },
        ResponseBody::Jobs {
            jobs: vec![JobSummary {
                job: 3,
                fingerprint: u64::MAX,
                use_case: "stress".into(),
                priority: -4,
                state: JobState::TimedOut,
            }],
        },
        ResponseBody::Metrics {
            text: "# TYPE micrograd_workers gauge\nmicrograd_workers 2\n".into(),
        },
        ResponseBody::Timeline {
            timeline: JobTimeline {
                job: 3,
                started_ns: 12_000,
                marks: vec![TimelineMark {
                    stage: "epoch".into(),
                    offset_ns: 9_500,
                    detail: 2,
                }],
            },
        },
        ResponseBody::ShuttingDown,
        ResponseBody::Error {
            message: "queue full".into(),
            retry_after_ms: Some(200),
        },
    ]
    .into_iter()
    .map(|body| encode_line(&Response::new(body)).expect("encodes"))
    .collect()
}

/// JSON fragments an insertion mutation splices in.
const TOKENS: [&str; 18] = [
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    "null",
    "true",
    "-",
    "1e999",
    "18446744073709551616",
    "-9223372036854775809",
    r#""\ud800""#,
    r#""\ud800\u0041""#,
    r#""op":"watch""#,
    r#"{"proto":1,"body":"#,
];

/// What a nesting run repeats.
const OPENERS: [&[u8]; 3] = [b"[", b"{\"k\":", b"[{\"body\":"];

/// Applies one to four random mutations to `line`: bit flips,
/// truncations, deletions, inserted tokens and nesting runs.
fn mutate(rng: &mut ChaCha8Rng, line: &str) -> String {
    let mut bytes = line.trim_end().as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=4) {
        let at = rng.gen_range(0..=bytes.len());
        let insert = match rng.gen_range(0..5) {
            0 => {
                if let Some(byte) = bytes.get_mut(at) {
                    *byte ^= 1 << rng.gen_range(0..8);
                }
                continue;
            }
            1 => {
                bytes.truncate(at);
                continue;
            }
            2 => {
                let end = (at + rng.gen_range(1..16)).min(bytes.len());
                bytes.drain(at..end);
                continue;
            }
            3 => TOKENS[rng.gen_range(0..TOKENS.len())].as_bytes().to_vec(),
            _ => {
                // Half the runs straddle the parser's nesting limit.
                let depth = if rng.gen_bool(0.5) {
                    rng.gen_range(100..200)
                } else {
                    rng.gen_range(1..=MAX_NESTING)
                };
                OPENERS[rng.gen_range(0..OPENERS.len())].repeat(depth)
            }
        };
        let tail = bytes.split_off(at);
        bytes.extend_from_slice(&insert);
        bytes.extend_from_slice(&tail);
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn mutated_lines_decode_to_a_value_or_a_wire_error() {
    let requests = request_lines();
    let responses = response_lines();
    // Sanity: the unmutated lines decode.
    assert!(requests.iter().all(|line| decode_request(line).is_ok()));
    assert!(responses.iter().all(|line| decode_response(line).is_ok()));
    // A spawned thread gets the default stack, as the daemon's reactor
    // thread does; a stack overflow aborts the whole test binary.
    std::thread::spawn(move || {
        for seed in SEEDS {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for case in 0..MUTATION_CASES {
                let request = &requests[rng.gen_range(0..requests.len())];
                let request = mutate(&mut rng, request);
                let response = &responses[rng.gen_range(0..responses.len())];
                let response = mutate(&mut rng, response);
                // Either decoder returning at all — `Ok` or a typed
                // `WireError` — is the property; a panic is reported
                // with its input.
                let outcome = std::panic::catch_unwind(|| {
                    let _ = decode_request(&request);
                    let _ = decode_response(&response);
                });
                assert!(
                    outcome.is_ok(),
                    "seed {seed:#x} case {case}: a decoder panicked on\n{:.400}\nor\n{:.400}",
                    request,
                    response
                );
            }
        }
    })
    .join()
    .expect("no mutated line panics a decoder");
}
